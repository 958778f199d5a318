// Test-only reference generation loop.
//
// Production generation runs every entry point through one loop,
// TraceStreamMachine (src/core/batch_generator.h). The byte-identity suites
// need a reference that shares none of that loop's code, so this file keeps
// an independent copy of the paper's per-period loop: a Poisson batch-arrival
// draw, the flavor-LSTM token loop until the sampled number of EOBs, and one
// lifetime-LSTM hazard step per job. It drives the stage generators directly
// and never touches the machine, the batched engine, or the thread pool.
// Metrics and the fidelity monitor are left out: they are observe-only.
#ifndef TESTS_GEN_ORACLE_H_
#define TESTS_GEN_ORACLE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <vector>

#include "src/core/workload_model.h"
#include "src/trace/trace.h"
#include "src/util/rng.h"

namespace cloudgen {

// One trace's checkpointable generation state: both stage generators plus
// the synthetic-user counter. RunPeriod generates one period's jobs.
class OraclePeriodEngine {
 public:
  OraclePeriodEngine(const WorkloadModel& model, const BatchArrivalModel& arrivals,
                     const WorkloadModel::GenerateOptions& options, int doh_day);

  // `allow_midperiod_cancel` lets options.cancel stop the token loop between
  // tokens (in-memory traces, which are discarded when partial); streaming
  // passes false so cancellation lands only at period boundaries.
  void RunPeriod(int64_t period, Rng& rng, const std::function<void(const Job&)>& emit,
                 bool allow_midperiod_cancel);

  // Exact state at a period boundary: next_user, the flavor generator, then
  // the lifetime generator. This is the layout streaming checkpoints carry.
  void SaveState(std::ostream& out) const;

 private:
  const BatchArrivalModel& arrivals_;
  const WorkloadModel::GenerateOptions& options_;
  int doh_day_;
  FlavorLstmModel::Generator flavor_gen_;
  LifetimeLstmModel::Generator lifetime_gen_;
  const LifetimeBinning& binning_;
  int64_t next_user_ = 0;
};

// Reference for WorkloadModel::Generate / GenerateWithArrivalModel: one DOH
// draw from `rng`, then every period in order.
Trace OracleGenerate(const WorkloadModel& model, const BatchArrivalModel& arrivals,
                     const WorkloadModel::GenerateOptions& options, Rng& rng);
Trace OracleGenerate(const WorkloadModel& model,
                     const WorkloadModel::GenerateOptions& options, Rng& rng);

// Reference for WorkloadModel::GenerateMany: one draw anchors the family,
// then trace i is OracleGenerate on Rng::Stream(base, i), one after another
// on the calling thread.
std::vector<Trace> OracleGenerateMany(const WorkloadModel& model,
                                      const WorkloadModel::GenerateOptions& options,
                                      size_t count, Rng& rng);

}  // namespace cloudgen

#endif  // TESTS_GEN_ORACLE_H_

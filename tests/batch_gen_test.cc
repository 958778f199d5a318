// Byte-identity suite for the batched multi-stream inference engine
// (src/core/batch_generator.h). The engine's contract is that generation is
// purely a throughput knob: for ANY batch window, shard count and thread
// count, every trace is bitwise-identical to the test-only reference loop
// (tests/gen_oracle.h), because each stream draws only from its own
// Rng::Stream and batched GEMM rows reduce in the same per-element order as
// batch-1 GEMVs.
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/batch_generator.h"
#include "src/core/workload_model.h"
#include "src/synth/synthetic_cloud.h"
#include "src/trace/trace.h"
#include "src/util/check.h"
#include "src/util/rng.h"
#include "src/util/thread_pool.h"
#include "tests/gen_oracle.h"

namespace cloudgen {
namespace {

SynthProfile TinyProfile() {
  SynthProfile profile = AzureLikeProfile(0.4);
  profile.train_days = 2;
  profile.dev_days = 1;
  profile.test_days = 1;
  profile.num_flavors = 5;
  profile.num_users = 20;
  return profile;
}

WorkloadModelConfig TinyConfig() {
  WorkloadModelConfig config;
  config.flavor.hidden_dim = 16;
  config.flavor.num_layers = 1;
  config.flavor.seq_len = 32;
  config.flavor.batch_size = 16;
  config.flavor.epochs = 3;
  config.lifetime.hidden_dim = 16;
  config.lifetime.num_layers = 1;
  config.lifetime.seq_len = 32;
  config.lifetime.batch_size = 16;
  config.lifetime.epochs = 3;
  return config;
}

Trace TrainingTrace() {
  const Trace full = SyntheticCloud(TinyProfile(), 606).Generate();
  return ApplyObservationWindow(full, 0, 2 * kPeriodsPerDay, 2 * kPeriodsPerDay);
}

// Trains the shared model once; every test reuses it.
const WorkloadModel& DenseModel() {
  static const WorkloadModel* model = [] {
    SetGlobalThreads(1);
    auto* m = new WorkloadModel();
    Rng rng(42);
    CG_CHECK(m->Train(TrainingTrace(), TinyConfig(), rng).ok());
    return m;
  }();
  return *model;
}

void ExpectSameTrace(const Trace& a, const Trace& b, size_t which,
                     const std::string& what) {
  ASSERT_EQ(a.NumJobs(), b.NumJobs()) << what << " trace " << which;
  for (size_t j = 0; j < a.NumJobs(); ++j) {
    const Job& x = a.Jobs()[j];
    const Job& y = b.Jobs()[j];
    ASSERT_EQ(x.start_period, y.start_period)
        << what << " trace " << which << " job " << j;
    ASSERT_EQ(x.end_period, y.end_period)
        << what << " trace " << which << " job " << j;
    ASSERT_EQ(x.flavor, y.flavor) << what << " trace " << which << " job " << j;
    ASSERT_EQ(x.user, y.user) << what << " trace " << which << " job " << j;
    ASSERT_EQ(x.censored, y.censored)
        << what << " trace " << which << " job " << j;
  }
}

std::vector<Trace> GenerateAt(const WorkloadModel& model,
                              WorkloadModel::GenerateOptions options,
                              size_t count, size_t window, size_t threads) {
  SetGlobalThreads(threads);
  options.batch_window = window;
  Rng rng(99);
  std::vector<Trace> traces = model.GenerateMany(options, count, rng);
  SetGlobalThreads(1);
  return traces;
}

// The reference loop on the same seed as GenerateAt.
std::vector<Trace> Oracle(const WorkloadModel& model,
                          const WorkloadModel::GenerateOptions& options,
                          size_t count) {
  Rng rng(99);
  return OracleGenerateMany(model, options, count, rng);
}

void ExpectSameTraces(const std::vector<Trace>& oracle,
                      const std::vector<Trace>& got, const std::string& what) {
  ASSERT_EQ(oracle.size(), got.size()) << what;
  for (size_t i = 0; i < oracle.size(); ++i) {
    ExpectSameTrace(oracle[i], got[i], i, what);
  }
}

WorkloadModel::GenerateOptions BaseOptions() {
  WorkloadModel::GenerateOptions options;
  options.from_period = 3 * kPeriodsPerDay;
  options.to_period = 3 * kPeriodsPerDay + 24;
  return options;
}

// The tentpole identity: batched generation at every window size and thread
// count reproduces the reference loop byte for byte. Windows below the
// trace count force constant retire/refill churn (the active set is ragged on
// every tick); windows above it run the whole population in one batch.
TEST(BatchGenIdentity, BatchedMatchesOracleAcrossWindowsAndThreads) {
  const WorkloadModel& model = DenseModel();
  const WorkloadModel::GenerateOptions options = BaseOptions();
  constexpr size_t kCount = 70;  // > 64 so the 64-window actually refills.

  const std::vector<Trace> oracle = Oracle(model, options, kCount);
  size_t total_jobs = 0;
  for (const Trace& trace : oracle) {
    total_jobs += trace.NumJobs();
  }
  ASSERT_GT(total_jobs, 0u);  // The window must actually produce work.

  for (const size_t window : {size_t{1}, size_t{7}, size_t{64}, size_t{513}}) {
    for (const size_t threads : {size_t{1}, size_t{2}, size_t{4}}) {
      const std::string what = "window=" + std::to_string(window) +
                               " threads=" + std::to_string(threads);
      ExpectSameTraces(oracle, GenerateAt(model, options, kCount, window, threads),
                       what);
    }
  }
  // Window 0 is clamped to 1: the same bytes.
  ExpectSameTraces(oracle, GenerateAt(model, options, kCount, 0, 4),
                   "window=0 threads=4");
}

// Staggered stream lengths: a longer horizon and a scaled arrival rate make
// per-stream token counts diverge sharply, so mid-tick groups are ragged
// (some streams in the flavor phase, others in the lifetime phase, retiring
// at very different tick counts). Identity must survive all of it.
TEST(BatchGenIdentity, RaggedStaggeredStreamsStayByteIdentical) {
  const WorkloadModel& model = DenseModel();
  WorkloadModel::GenerateOptions options = BaseOptions();
  options.to_period = 3 * kPeriodsPerDay + 48;
  options.arrival_scale = 2.0;
  constexpr size_t kCount = 20;

  const std::vector<Trace> oracle = Oracle(model, options, kCount);
  ExpectSameTraces(oracle, GenerateAt(model, options, kCount, 7, 4),
                   "ragged window=7 threads=4");
  ExpectSameTraces(oracle, GenerateAt(model, options, kCount, 3, 1),
                   "ragged window=3 threads=1");
}

// The what-if knobs ride the same sampling path; batching must not disturb
// them (eob_scale reweights the EOB probability, stepped interpolation
// changes the duration transform).
TEST(BatchGenIdentity, WhatIfKnobsMatchOracle) {
  const WorkloadModel& model = DenseModel();
  WorkloadModel::GenerateOptions options = BaseOptions();
  options.eob_scale = 0.5;
  options.interpolation = Interpolation::kStepped;
  constexpr size_t kCount = 12;

  const std::vector<Trace> oracle = Oracle(model, options, kCount);
  ExpectSameTraces(oracle, GenerateAt(model, options, kCount, 5, 4),
                   "eob_scale window=5 threads=4");
}

// The single-step route (Generate, GenerateWithArrivalModel) runs the same
// machine on the caller's Rng: the trace matches the reference loop and the
// caller's generator is left exactly where the reference leaves it. The
// override is a no-DOH arrival fit, so the DOH day must still come from the
// model's own arrival history.
TEST(BatchGenIdentity, SingleStepRouteMatchesOracle) {
  const WorkloadModel& model = DenseModel();
  WorkloadModel::GenerateOptions options = BaseOptions();
  options.to_period = 3 * kPeriodsPerDay + 48;
  BatchArrivalModel no_doh;
  ArrivalModelConfig config;
  config.use_doh = false;
  no_doh.Fit(TrainingTrace(), ArrivalGranularity::kBatches, config);

  const BatchArrivalModel* own = &model.ArrivalModel();
  const BatchArrivalModel* override_model = &no_doh;
  for (const BatchArrivalModel* arrivals : {own, override_model}) {
    for (const uint64_t seed : {uint64_t{5}, uint64_t{6}, uint64_t{7}}) {
      const std::string what = "seed=" + std::to_string(seed) +
                               (arrivals == &no_doh ? " no-doh override" : "");
      Rng oracle_rng(seed);
      const Trace oracle = OracleGenerate(model, *arrivals, options, oracle_rng);
      Rng rng(seed);
      const Trace got = arrivals == own
                            ? model.Generate(options, rng)
                            : model.GenerateWithArrivalModel(*arrivals, options, rng);
      ASSERT_GT(oracle.NumJobs(), 0u) << what;
      ExpectSameTrace(oracle, got, 0, what);
      EXPECT_EQ(oracle_rng.Next(), rng.Next()) << what;
    }
  }
}

// Sharded tick scheduler (RunShardedBatchEngines, called directly because
// WorkloadModel always runs one shard per pool thread): the full shards x
// windows x threads matrix must reproduce the reference loop byte for byte.
// Shards beyond the thread count still run (they just share workers);
// windows below count/shards force per-shard retire/refill churn.
TEST(BatchGenIdentity, ShardedMatchesOracleAcrossShardsWindowsAndThreads) {
  const WorkloadModel& model = DenseModel();
  const WorkloadModel::GenerateOptions options = BaseOptions();
  constexpr size_t kCount = 70;

  const std::vector<Trace> oracle = Oracle(model, options, kCount);
  size_t total_jobs = 0;
  for (const Trace& trace : oracle) {
    total_jobs += trace.NumJobs();
  }
  ASSERT_GT(total_jobs, 0u);
  Rng anchor(99);
  const uint64_t base = anchor.Next();  // GenerateMany's family anchor.

  for (const size_t shards : {size_t{1}, size_t{2}, size_t{4}}) {
    for (const size_t window : {size_t{1}, size_t{7}, size_t{64}}) {
      for (const size_t threads : {size_t{1}, size_t{4}}) {
        const std::string what = "shards=" + std::to_string(shards) +
                                 " window=" + std::to_string(window) +
                                 " threads=" + std::to_string(threads);
        SetGlobalThreads(threads);
        std::map<size_t, Trace> done;
        RunShardedBatchEngines(model, options, base, 0, kCount, window, shards,
                               [&done](size_t i, Trace&& trace) {
                                 done.emplace(i, std::move(trace));
                                 return true;
                               });
        SetGlobalThreads(1);
        std::vector<Trace> got;
        for (auto& [index, trace] : done) {
          got.push_back(std::move(trace));
        }
        ExpectSameTraces(oracle, got, what);
      }
    }
  }
}

// The reference (unpacked) step route must agree with the packed fast path
// inside the batched engine too, not just single-stream.
TEST(BatchGenIdentity, PackedAndReferenceRoutesAgreeWhenBatched) {
  WorkloadModel model;  // Private copy: this test mutates pack state.
  Rng rng(42);
  SetGlobalThreads(1);
  ASSERT_TRUE(model.Train(TrainingTrace(), TinyConfig(), rng).ok());
  const WorkloadModel::GenerateOptions options = BaseOptions();
  constexpr size_t kCount = 8;

  const std::vector<Trace> packed =
      GenerateAt(model, options, kCount, /*window=*/4, /*threads=*/1);
  model.InvalidatePackedForTest();
  const std::vector<Trace> reference =
      GenerateAt(model, options, kCount, /*window=*/4, /*threads=*/1);
  model.PrepackForTest();
  ExpectSameTraces(packed, reference, "packed vs reference batched");
}

}  // namespace
}  // namespace cloudgen

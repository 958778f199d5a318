#include "tests/gen_oracle.h"

#include <algorithm>
#include <cmath>
#include <ostream>

#include "src/util/cancel.h"

namespace cloudgen {

OraclePeriodEngine::OraclePeriodEngine(const WorkloadModel& model,
                                       const BatchArrivalModel& arrivals,
                                       const WorkloadModel::GenerateOptions& options,
                                       int doh_day)
    : arrivals_(arrivals),
      options_(options),
      doh_day_(doh_day),
      flavor_gen_(model.FlavorModel(), doh_day, options.eob_scale, options.guard),
      lifetime_gen_(model.LifetimeModel(), doh_day, options.guard),
      binning_(model.LifetimeModel().Binning()) {}

void OraclePeriodEngine::RunPeriod(int64_t period, Rng& rng,
                                   const std::function<void(const Job&)>& emit,
                                   bool allow_midperiod_cancel) {
  // A no-DOH arrival override ignores the day argument internally.
  const int arrivals_doh = std::min(doh_day_, std::max(1, arrivals_.HistoryDays()));
  const double rate = arrivals_.Rate(period, arrivals_doh) * options_.arrival_scale;
  const int64_t n_batches = rng.Poisson(rate);
  if (n_batches == 0) {
    return;
  }
  const CancelToken* cancel = allow_midperiod_cancel ? options_.cancel : nullptr;
  flavor_gen_.StartPeriod(period, n_batches, kGenMaxJobsPerPeriod);
  while (flavor_gen_.PeriodActive()) {
    if (cancel != nullptr && cancel->Cancelled()) {
      break;  // Partial period: the caller discards the whole trace.
    }
    flavor_gen_.StepToken(rng);
  }
  const std::vector<std::vector<int32_t>> batches = flavor_gen_.TakeBatches();
  for (const std::vector<int32_t>& batch : batches) {
    const int64_t user = next_user_++;
    for (int32_t flavor : batch) {
      const size_t bin = lifetime_gen_.StepJob(period, flavor, batch.size(), rng);
      const double duration =
          SampleDurationInBin(binning_, bin, options_.interpolation, rng);
      Job job;
      job.start_period = period;
      job.end_period =
          period + static_cast<int64_t>(std::llround(duration / kSecondsPerPeriod));
      job.flavor = flavor;
      job.user = user;
      job.censored = false;
      emit(job);
    }
  }
}

void OraclePeriodEngine::SaveState(std::ostream& out) const {
  out.write(reinterpret_cast<const char*>(&next_user_), sizeof(next_user_));
  flavor_gen_.SaveState(out);
  lifetime_gen_.SaveState(out);
}

Trace OracleGenerate(const WorkloadModel& model, const BatchArrivalModel& arrivals,
                     const WorkloadModel::GenerateOptions& options, Rng& rng) {
  Trace trace(model.Flavors(), options.from_period, options.to_period);
  // The LSTM stages' DOH day always comes from the model's own arrival fit.
  const int doh_day = model.ArrivalModel().SampleDohDay(rng, options.doh_mode);
  OraclePeriodEngine engine(model, arrivals, options, doh_day);
  for (int64_t period = options.from_period; period < options.to_period; ++period) {
    if (options.cancel != nullptr && options.cancel->Poll()) {
      break;
    }
    engine.RunPeriod(
        period, rng, [&trace](const Job& job) { trace.Add(job); },
        /*allow_midperiod_cancel=*/true);
  }
  return trace;
}

Trace OracleGenerate(const WorkloadModel& model,
                     const WorkloadModel::GenerateOptions& options, Rng& rng) {
  return OracleGenerate(model, model.ArrivalModel(), options, rng);
}

std::vector<Trace> OracleGenerateMany(const WorkloadModel& model,
                                      const WorkloadModel::GenerateOptions& options,
                                      size_t count, Rng& rng) {
  const uint64_t base = rng.Next();
  std::vector<Trace> traces;
  traces.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    Rng stream = Rng::Stream(base, i);
    traces.push_back(OracleGenerate(model, options, stream));
  }
  return traces;
}

}  // namespace cloudgen

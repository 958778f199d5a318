// train: WorkloadModel::Train (arrival IRLS fit, then the flavor and
// lifetime LSTMs with data-parallel BPTT and Adam) on 14 synthesized days,
// hidden 64, 2 layers, kEpochs epochs, on a 2-thread pool. Every operation
// trains from scratch with the same seed, so every operation does identical
// work and must produce an identical model.
//
// Checks, per operation and outside its timing: the held-out (the two days
// after the training window) flavor NLL and lifetime BCE are finite, below
// the uniform baselines log(K+1) and log 2, and bitwise equal to the first
// operation's.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "perfbench/src/common.h"
#include "perfbench/src/instruments.h"
#include "src/core/flavor_model.h"
#include "src/core/lifetime_model.h"
#include "src/obs/trace_span.h"
#include "src/util/rng.h"
#include "src/util/thread_pool.h"

namespace perfbench {
namespace {

constexpr int64_t kHeldOutDays = 2;
// Reading the trace takes ~20 ms, so train repeats its set-up more often
// than the other workloads, before and after the phase alike.
constexpr size_t kTrainSetupReps = 15;

struct TrainOp {
  double seconds = 0.0;
  double flavor_nll = 0.0;
  double lifetime_bce = 0.0;
  std::string error;
};

struct PhaseResult {
  std::vector<TrainOp> ops;
  double seconds = 0.0;
  // Work per second, given the work of one operation (jobs or step records).
  double PerSecond(double per_op) const {
    return seconds > 0.0 ? per_op * static_cast<double>(ops.size()) / seconds : 0.0;
  }
};

class TrainWorkload {
 public:
  explicit TrainWorkload(const Args& args) : args_(args), shape_(ShapeFor(args.workload)) {}

  void Run(Report* report);

 private:
  // Times `reps` set-ups (ReadTraceCsv + the window) into `times`.
  bool Setup(size_t reps, std::vector<double>* times, Report* report);
  PhaseResult RunPhase();
  void Verify(const PhaseResult& phase, Report* report) const;
  void ReportLayers(double untraced_jobs_per_s, Report* report);

  const Args& args_;
  const WorkloadShape shape_;
  cloudgen::Trace train_;
  cloudgen::Trace held_out_;
  size_t num_flavors_ = 0;
  double rows_per_op_ = 0.0;
  // Jobs of the training window times epochs: the jobs one Train call
  // learns from.
  double jobs_per_op_ = 0.0;
  // The first operation's model: the reference for determinism and layers.
  std::unique_ptr<cloudgen::WorkloadModel> first_;
};

bool TrainWorkload::Setup(size_t reps, std::vector<double>* times, Report* report) {
  cloudgen::Trace trace;
  for (size_t rep = 0; rep < reps; ++rep) {
    CG_SPAN("setup");
    const double t0 = NowSeconds();
    trace = cloudgen::Trace();
    const Status status = LoadTrace(args_, &trace);
    train_ = TrainWindow(trace);
    times->push_back(NowSeconds() - t0);
    if (!status.ok()) {
      report->Fail("setup: " + status.ToString());
      return false;
    }
  }
  const int64_t held_end = kGenerationStart + kHeldOutDays * cloudgen::kPeriodsPerDay;
  held_out_ = cloudgen::ApplyObservationWindow(trace, kGenerationStart, held_end, held_end);
  num_flavors_ = trace.NumFlavors();
  return true;
}

PhaseResult TrainWorkload::RunPhase() {
  PhaseResult result;
  const cloudgen::WorkloadModelConfig config = ModelConfig(shape_);
  while (result.seconds < args_.seconds) {
    auto model = std::make_unique<cloudgen::WorkloadModel>();
    cloudgen::Rng rng(DeriveSeed(args_.seed, "train"));
    TrainOp op;
    Status status;
    {
      CG_SPAN("op.train");
      const double t0 = NowSeconds();
      status = model->Train(train_, config, rng);
      op.seconds = NowSeconds() - t0;
    }
    if (status.ok()) {
      CG_SPAN("verify.evaluate");
      op.flavor_nll = model->FlavorModel().Evaluate(held_out_).nll;
      op.lifetime_bce = model->LifetimeModel().Evaluate(held_out_).bce;
    } else {
      op.error = status.ToString();
    }
    result.seconds += op.seconds;
    result.ops.push_back(op);
    if (first_ == nullptr && status.ok()) {
      // Step records the trainers see per epoch: flavor tokens + lifetime jobs.
      const int history = model->HistoryDays();
      const size_t flavor_rows = cloudgen::BuildFlavorStream(train_, history).tokens.size();
      const size_t lifetime_rows =
          cloudgen::BuildLifetimeStream(train_, model->LifetimeModel().Binning(), history)
              .steps.size();
      rows_per_op_ = static_cast<double>((flavor_rows + lifetime_rows) * shape_.epochs);
      jobs_per_op_ = static_cast<double>(train_.Jobs().size() * shape_.epochs);
      first_ = std::move(model);
    }
  }
  return result;
}

void TrainWorkload::Verify(const PhaseResult& phase, Report* report) const {
  const double uniform_nll = std::log(static_cast<double>(num_flavors_ + 1));
  const double uniform_bce = std::log(2.0);
  const TrainOp& reference = phase.ops.front();
  for (const TrainOp& op : phase.ops) {
    ++report->attempted;
    std::string error = op.error;
    if (error.empty() && !(std::isfinite(op.flavor_nll) && op.flavor_nll < uniform_nll)) {
      error = "flavor NLL " + std::to_string(op.flavor_nll) + " is not below log(K+1)";
    }
    if (error.empty() && !(std::isfinite(op.lifetime_bce) && op.lifetime_bce < uniform_bce)) {
      error = "lifetime BCE " + std::to_string(op.lifetime_bce) + " is not below log 2";
    }
    if (error.empty() && (op.flavor_nll != reference.flavor_nll ||
                          op.lifetime_bce != reference.lifetime_bce)) {
      error = "same-seed training is not deterministic";
    }
    if (!error.empty()) {
      ++report->failed;
      report->Fail("train op: " + error);
    }
  }
}

void TrainWorkload::Run(Report* report) {
  cloudgen::SetGlobalThreads(shape_.threads);
  std::vector<double> setup_times;
  if (!Setup(kTrainSetupReps, &setup_times, report)) return;
  cloudgen::obs::TraceCollector::Global().SetEnabled(false);  // Traced runs trace set-up only.
  PhaseResult untraced = RunPhase();
  const double peak_rss_mb = PeakRssMiB();  // Before the checks allocate.
  Verify(untraced, report);
  if (first_ == nullptr) {
    report->Fail("no training operation succeeded");
  } else if (!args_.trace) {
    report->Set("jobs_per_s", untraced.PerSecond(jobs_per_op_), "jobs/s", untraced.ops.size());
    report->Set("peak_rss_mb", peak_rss_mb, "MiB", 1);
    if (!Setup(kTrainSetupReps, &setup_times, report)) return;
    report->Set("setup_s", Median(setup_times), "s", setup_times.size());
    report->Extra("train_rows_per_s", untraced.PerSecond(rows_per_op_), "rows/s",
                  untraced.ops.size());
    report->Extra("flavor_nll", untraced.ops.front().flavor_nll, "nats/token", 1);
    report->Extra("lifetime_bce", untraced.ops.front().lifetime_bce, "nats", 1);
  } else {
    ReportLayers(untraced.PerSecond(jobs_per_op_), report);
  }
  report->Note("epochs", std::to_string(shape_.epochs));
  report->Note("rows_per_op", JsonNumber(rows_per_op_));
  report->Note("jobs_per_op", JsonNumber(jobs_per_op_));
  report->SetSuccessRate();
}

void TrainWorkload::ReportLayers(double untraced_jobs_per_s, Report* report) {
  auto& registry = cloudgen::obs::Registry::Global();
  cloudgen::obs::TraceCollector::Global().SetEnabled(true);
  TracedPhase phase;
  phase.model = first_.get();
  phase.train = &train_;
  phase.shape = shape_;
  phase.before = registry.Snapshot();
  PoolSampler sampler(50);
  PhaseResult traced = RunPhase();
  double utilization = 0.0;
  const bool have_utilization = sampler.Mean(&utilization);
  phase.after = registry.Snapshot();
  Verify(traced, report);
  phase.ops = traced.ops.size();
  phase.untraced = untraced_jobs_per_s;
  phase.traced = traced.PerSecond(jobs_per_op_);

  // This workload's own layer numbers, beyond the manifest's common set.
  const auto hist_before = phase.before.histograms.find("time.train_epoch_ms");
  const auto hist_after = phase.after.histograms.find("time.train_epoch_ms");
  if (hist_after != phase.after.histograms.end()) {
    double sum = hist_after->second.sum;
    double count = static_cast<double>(hist_after->second.count);
    if (hist_before != phase.before.histograms.end()) {
      sum -= hist_before->second.sum;
      count -= static_cast<double>(hist_before->second.count);
    }
    if (count > 0.0) report->Extra("core.train_epoch_s", sum / count / 1e3, "s", count);
  }
  NotePoolUtilization(have_utilization, utilization, phase.ops, report);
  FinishTracedRun(args_, phase, report);
}

}  // namespace

void RunTrain(const Args& args, Report* report) { TrainWorkload(args).Run(report); }

}  // namespace perfbench

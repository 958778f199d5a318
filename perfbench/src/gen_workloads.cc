// gen_many and gen_stream: sink-based generation into SegmentedFileSink with
// a checkpoint (the `cloudgen generate --out-dir` path).
//
// A run repeats one operation until --seconds have been measured:
//   gen_many    GenerateMany of kManyTraces traces over kManyPeriods periods,
//               kManyJobsPerTrace expected jobs each (hidden 200, 2-thread
//               pool);
//   gen_stream  GenerateStreaming of one trace over kStreamDays days,
//               kStreamJobs expected jobs (hidden 64, 1 thread), sealing +
//               checkpointing every few simulated hours.
// Each operation gets its own seed and output directory. After the timed
// phase every directory is CRC-verified with ConcatSegments, its row count
// is checked against the report, and a seeded sample is regenerated through
// an independent route and byte-compared.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "perfbench/src/common.h"
#include "perfbench/src/instruments.h"
#include "src/obs/trace_span.h"
#include "src/trace/trace_sink.h"
#include "src/util/rng.h"
#include "src/util/thread_pool.h"

namespace perfbench {
namespace {

constexpr size_t kManyTraces = 256;
constexpr int64_t kManyPeriods = 24;  // Two hours of 5-minute periods.
constexpr double kManyJobsPerTrace = 120.0;
constexpr uint64_t kManySegmentBytes = 256u << 10;
constexpr size_t kManySampledTraces = 6;

constexpr int64_t kStreamDays = 4;
constexpr double kStreamJobs = 10000.0;
// 2.5k jobs/day of ~25-byte rows: a 16 KiB segment seals every ~6 hours.
constexpr uint64_t kStreamSegmentBytes = 16u << 10;
constexpr size_t kStreamSampledOps = 2;

struct GenOp {
  std::string dir;
  uint64_t seed = 0;
  uint64_t jobs = 0;
  double seconds = 0.0;
  std::string error;  // Non-empty when the operation itself failed.
};

struct PhaseResult {
  std::vector<GenOp> ops;
  double seconds = 0.0;
  uint64_t jobs = 0;
  double JobsPerSecond() const { return seconds > 0.0 ? jobs / seconds : 0.0; }
};

// Per-layer instruments of a traced phase.
struct Instruments {
  double sink_busy_s = 0.0;
  uint64_t sink_calls = 0;
  uint64_t sink_bytes = 0;
  uint64_t seals = 0;
};

class GenWorkload {
 public:
  GenWorkload(const Args& args, bool many)
      : args_(args), many_(many), shape_(ShapeFor(args.workload)) {}

  void Run(Report* report);

 private:
  cloudgen::WorkloadModel::GenerateOptions Options() const;
  GenOp RunOp(size_t index, const char* phase, Instruments* instruments) const;
  PhaseResult RunPhase(const char* phase, Instruments* instruments) const;
  void Verify(const PhaseResult& phase, Report* report) const;
  bool VerifySample(const GenOp& op, size_t trace_index, const std::string& payload) const;
  void ReportLayers(const PhaseResult& untraced, Report* report);

  const Args& args_;
  const bool many_;
  const WorkloadShape shape_;
  std::unique_ptr<cloudgen::WorkloadModel> model_;
  cloudgen::Trace train_;
  double arrival_scale_ = 1.0;
};

cloudgen::WorkloadModel::GenerateOptions GenWorkload::Options() const {
  cloudgen::WorkloadModel::GenerateOptions options;
  options.from_period = kGenerationStart;
  options.to_period = options.from_period +
                      (many_ ? kManyPeriods : kStreamDays * cloudgen::kPeriodsPerDay);
  options.arrival_scale = arrival_scale_;
  return options;
}

GenOp GenWorkload::RunOp(size_t index, const char* phase, Instruments* instruments) const {
  GenOp op;
  op.seed = DeriveSeed(args_.seed, many_ ? "gen_many" : "gen_stream", index);
  op.dir = args_.work_dir + "/" + phase + "-" + std::to_string(index);
  CG_SPAN(many_ ? "op.generate_many" : "op.generate_streaming");
  const double t0 = NowSeconds();
  cloudgen::SegmentedFileSink::Options sink_options;
  sink_options.dir = op.dir;
  sink_options.segment_bytes = many_ ? kManySegmentBytes : kStreamSegmentBytes;
  cloudgen::SegmentedFileSink sink(sink_options);
  Status status = sink.Init();
  TimingSink timing(&sink);
  cloudgen::WorkloadModel::GenerateRun run;
  run.sink = instruments != nullptr ? static_cast<cloudgen::TraceSink*>(&timing) : &sink;
  run.checkpoint_path = op.dir + "/gen.ckpt";
  run.config_fingerprint = op.seed;
  cloudgen::WorkloadModel::GenerateReport gen_report;
  cloudgen::Rng rng(op.seed);
  if (status.ok()) {
    status = many_ ? model_->GenerateMany(Options(), kManyTraces, rng, run, &gen_report)
                   : model_->GenerateStreaming(Options(), rng, run, &gen_report);
  }
  op.seconds = NowSeconds() - t0;
  op.jobs = gen_report.jobs;
  if (!status.ok()) {
    op.error = status.ToString();
  } else if (gen_report.interrupted) {
    op.error = "generation was interrupted";
  }
  if (instruments != nullptr) {
    instruments->sink_busy_s += timing.BusySeconds();
    instruments->sink_calls += timing.Calls();
    instruments->sink_bytes += timing.Bytes();
    instruments->seals += timing.Seals();
  }
  return op;
}

PhaseResult GenWorkload::RunPhase(const char* phase, Instruments* instruments) const {
  PhaseResult result;
  while (result.seconds < args_.seconds) {
    GenOp op = RunOp(result.ops.size(), phase, instruments);
    result.seconds += op.seconds;
    result.jobs += op.jobs;
    result.ops.push_back(std::move(op));
  }
  return result;
}

bool GenWorkload::VerifySample(const GenOp& op, size_t trace_index,
                               const std::string& payload) const {
  std::string expected;
  if (many_) {
    // Serve's per-trace route: trace i of the family is a pure function of
    // (TraceFamilyBase(seed), i), independent of batching and sharding.
    model_->GenerateTraceRows(Options(), cloudgen::WorkloadModel::TraceFamilyBase(op.seed),
                              trace_index, &expected);
    // Rows of trace i: the contiguous run of lines whose first field is i.
    const std::string prefix = std::to_string(trace_index) + ",";
    std::string actual;
    size_t pos = 0;
    while (pos < payload.size()) {
      const size_t end = payload.find('\n', pos);
      const size_t next = end == std::string::npos ? payload.size() : end + 1;
      if (payload.compare(pos, prefix.size(), prefix) == 0) {
        actual.append(payload, pos, next - pos);
      }
      pos = next;
    }
    return actual == expected;
  }
  // The in-memory Generate route (pinned equal to GenerateStreaming by the
  // repository's own resume tests).
  cloudgen::Rng rng(op.seed);
  const cloudgen::Trace trace = model_->Generate(Options(), rng);
  for (const cloudgen::Job& job : trace.Jobs()) {
    cloudgen::AppendJobRow(0, job, &expected);
  }
  return payload == expected;
}

void GenWorkload::Verify(const PhaseResult& phase, Report* report) const {
  CG_SPAN("verify");
  const size_t n = phase.ops.size();
  // Seeded sample of (operation, trace) pairs to regenerate.
  std::vector<std::vector<size_t>> sampled(n);
  const size_t samples = many_ ? kManySampledTraces : std::min(kStreamSampledOps, n);
  for (size_t j = 0; j < samples; ++j) {
    const size_t op = many_ ? DeriveSeed(args_.seed, "check-op", j) % n
                            : (DeriveSeed(args_.seed, "check-op", 0) + j) % n;
    sampled[op].push_back(many_ ? DeriveSeed(args_.seed, "check-trace", j) % kManyTraces : 0);
  }
  for (size_t i = 0; i < n; ++i) {
    const GenOp& op = phase.ops[i];
    ++report->attempted;
    std::string payload;
    Status status = cloudgen::OkStatus();
    std::string error = op.error;
    if (error.empty()) {
      status = cloudgen::ConcatSegments(op.dir, /*require_complete=*/true, &payload);
      if (!status.ok()) {
        error = "segments: " + status.ToString();
      } else if (CountRows(payload) != op.jobs) {
        error = "row count " + std::to_string(CountRows(payload)) + " != reported jobs " +
                std::to_string(op.jobs);
      } else if (op.jobs == 0) {
        error = "operation generated no jobs";
      }
    }
    for (const size_t trace_index : sampled[i]) {
      if (error.empty() && !VerifySample(op, trace_index, payload)) {
        error = "trace " + std::to_string(trace_index) + " differs from its regeneration";
      }
    }
    if (!error.empty()) {
      ++report->failed;
      report->Fail(op.dir + ": " + error);
    }
    std::error_code ignored;
    std::filesystem::remove_all(op.dir, ignored);
  }
}

void GenWorkload::Run(Report* report) {
  cloudgen::SetGlobalThreads(shape_.threads);
  std::vector<double> setup_times;
  if (!TimeModelSetups(args_, shape_, kSetupRepsBefore, &model_, &setup_times, report)) return;
  cloudgen::Trace trace;
  if (!LoadTrace(args_, &trace).ok()) {
    report->Fail("cannot read the input trace");
    return;
  }
  train_ = TrainWindow(trace);
  arrival_scale_ = ArrivalScaleFor(*model_, Options(), many_ ? kManyJobsPerTrace : kStreamJobs,
                                   DeriveSeed(args_.seed, "calibrate"));
  report->Note("arrival_scale", JsonNumber(arrival_scale_));

  cloudgen::obs::TraceCollector::Global().SetEnabled(false);  // Traced runs trace set-up only.
  PhaseResult untraced = RunPhase("untraced", nullptr);
  const double peak_rss_mb = PeakRssMiB();  // Before the checks allocate.
  Verify(untraced, report);
  if (!args_.trace) {
    report->Set("jobs_per_s", untraced.JobsPerSecond(), "jobs/s", untraced.ops.size());
    report->Set("peak_rss_mb", peak_rss_mb, "MiB", 1);
    std::unique_ptr<cloudgen::WorkloadModel> reloaded;
    if (!TimeModelSetups(args_, shape_, kSetupRepsAfter, &reloaded, &setup_times, report)) return;
    report->Set("setup_s", Median(setup_times), "s", setup_times.size());
    report->Note("ops", std::to_string(untraced.ops.size()));
    report->Note("jobs_per_op", JsonNumber(static_cast<double>(untraced.jobs) /
                                           static_cast<double>(untraced.ops.size())));
  } else {
    ReportLayers(untraced, report);
  }
  report->Note("traces_per_op", std::to_string(many_ ? kManyTraces : 1));
  report->Note("periods_per_op", std::to_string(Options().to_period - Options().from_period));
  report->SetSuccessRate();
}

void GenWorkload::ReportLayers(const PhaseResult& untraced, Report* report) {
  auto& registry = cloudgen::obs::Registry::Global();
  cloudgen::obs::TraceCollector::Global().SetEnabled(true);
  Instruments instruments;
  TracedPhase phase;
  phase.model = model_.get();
  phase.train = &train_;
  phase.shape = shape_;
  phase.before = registry.Snapshot();
  PoolSampler sampler(50);
  PhaseResult traced = RunPhase("traced", &instruments);
  double utilization = 0.0;
  const bool have_utilization = sampler.Mean(&utilization);
  phase.after = registry.Snapshot();
  Verify(traced, report);
  phase.ops = traced.ops.size();
  phase.untraced = untraced.JobsPerSecond();
  phase.traced = traced.JobsPerSecond();

  // This workload's own layer numbers, beyond the manifest's common set.
  const size_t ops = phase.ops;
  const double per_op = 1.0 / static_cast<double>(ops);
  report->Extra("core.gen_self_s", (traced.seconds - instruments.sink_busy_s) * per_op, "s",
                ops);
  report->Extra("trace.sink_busy_s", instruments.sink_busy_s * per_op, "s", ops);
  report->Extra("trace.sink_share", instruments.sink_busy_s / traced.seconds, "ratio", ops);
  report->Extra("trace.seals", static_cast<double>(instruments.seals) * per_op, "count", ops);
  std::printf("perfbench-layer sink calls=%llu bytes=%llu busy_s=%.6f ops=%zu\n",
              static_cast<unsigned long long>(instruments.sink_calls),
              static_cast<unsigned long long>(instruments.sink_bytes), instruments.sink_busy_s,
              ops);
  double file_fsyncs = 0.0;
  double dir_fsyncs = 0.0;
  if (CounterDelta(phase.before, phase.after, "io.fsync.file", &file_fsyncs) &&
      CounterDelta(phase.before, phase.after, "io.fsync.dir", &dir_fsyncs)) {
    report->Extra("trace.fsyncs", (file_fsyncs + dir_fsyncs) * per_op, "count", ops);
  }
  double rows = 0.0;
  double ticks = 0.0;
  if (CounterDelta(phase.before, phase.after, "gen.batch.rows", &rows) &&
      CounterDelta(phase.before, phase.after, "gen.batch.ticks", &ticks) && ticks > 0.0) {
    report->Extra("core.rows_per_tick", rows / ticks, "count", ops);
  }
  double occupancy = 0.0;
  if (many_ && GaugeValue(phase.after, "gen.shard.occupancy", &occupancy)) {
    report->Extra("core.shard_occupancy", occupancy, "ratio", ops);
  }
  NotePoolUtilization(have_utilization, utilization, ops, report);
  FinishTracedRun(args_, phase, report);
}

}  // namespace

void RunGenMany(const Args& args, Report* report) { GenWorkload(args, true).Run(report); }

void RunGenStream(const Args& args, Report* report) { GenWorkload(args, false).Run(report); }

}  // namespace perfbench

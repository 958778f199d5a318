// Set-up timing and the per-layer probes every traced run makes.
//
// The manifest lists one set of per-layer metrics for every workload, so a
// layer a workload does not exercise is measured by a probe of that layer's
// public entry point: fixed-shape Gemm, the workload's own flavor network,
// a short generation with the workload's model, SegmentedFileSink fed with
// those jobs, BatchArrivalModel::Fit on the training window, and FetchHealth
// against a StreamServer.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "perfbench/src/common.h"
#include "perfbench/src/instruments.h"
#include "src/core/arrival_model.h"
#include "src/nn/sequence_network.h"
#include "src/obs/trace_span.h"
#include "src/serve/client.h"
#include "src/serve/server.h"
#include "src/trace/trace_sink.h"
#include "src/util/rng.h"
#include "src/util/thread_pool.h"

namespace perfbench {
namespace {

// gen_many's step shape: rows per batched tick (70 measured at 256 traces
// when the benchmark was added) and its hidden size.
constexpr size_t kGenGemmRows = 64;
constexpr size_t kGenGemmHidden = 200;
// The hidden size of gen_stream, serve and train.
constexpr size_t kSmallHidden = 64;
// Minibatch rows one data-parallel BPTT shard sees (24 rows over 8 shards).
constexpr size_t kShardRows = 3;
// Generation probe: traces of 12 hours from the day after the window.
constexpr size_t kProbeTraces = 4;
constexpr int64_t kProbePeriods = 144;
constexpr size_t kProbeReps = 3;
// Sink probe: the probe's jobs appended kSinkPasses times into 16 KiB
// segments, a commit point after every pass.
constexpr size_t kSinkPasses = 8;
constexpr uint64_t kSinkSegmentBytes = 16u << 10;
constexpr size_t kSinkReps = 5;
constexpr size_t kHealthProbes = 50;

void PrintGemm(const char* label, const GemmShape& shape, const GemmProbeResult& result) {
  std::printf("perfbench-layer %s ta=%d tb=%d m=%zu k=%zu n=%zu computed_flops=%.0f "
              "computed_bytes=%.0f gflops=%.3f\n",
              label, shape.trans_a, shape.trans_b, shape.m, shape.k, shape.n,
              result.flops_per_call, result.bytes_per_call, result.gflops);
}

// LSTM gate GEMM of an upper layer: [x; h] (2H) times the four gates (4H).
GemmShape GateShape(size_t rows, size_t hidden) {
  GemmShape shape;
  shape.m = rows;
  shape.k = 2 * hidden;
  shape.n = 4 * hidden;
  return shape;
}

void ReportTensorLayers(Report* report) {
  double peak = 0.0;
  {
    CG_SPAN("probe.fma_peak");
    peak = FmaPeakGflops();
  }
  report->Set("tensor.fma_peak_gflops", peak, "GFLOP/s", 7);

  const std::pair<const char*, GemmShape> single[] = {
      {"tensor.gemm_gen_gflops", GateShape(kGenGemmRows, kGenGemmHidden)},
      {"tensor.gemv_gflops", GateShape(1, kSmallHidden)},
  };
  for (const auto& [name, shape] : single) {
    CG_SPAN("probe.gemm");
    const GemmProbeResult result = ProbeGemm(shape, 0.5);
    report->Set(name, result.gflops, "GFLOP/s", result.calls);
    PrintGemm(name, shape, result);
  }

  // Training-shape GEMMs of one LSTM layer on one BPTT shard: forward, the
  // transposed weight-gradient product and the transposed input-gradient one.
  const GemmShape train_shapes[] = {
      {false, false, kShardRows, kSmallHidden, 4 * kSmallHidden},
      {true, false, kSmallHidden, kShardRows, 4 * kSmallHidden},
      {false, true, kShardRows, 4 * kSmallHidden, kSmallHidden},
  };
  double flops = 0.0;
  double seconds = 0.0;
  size_t calls = 0;
  for (const GemmShape& shape : train_shapes) {
    CG_SPAN("probe.gemm_train");
    const GemmProbeResult result = ProbeGemm(shape, 0.3);
    flops += result.flops_per_call;
    seconds += result.seconds_per_call;
    calls += result.calls;
    PrintGemm("tensor.gemm_train", shape, result);
  }
  report->Set("tensor.gemm_train_gflops", flops / seconds * 1e-9, "GFLOP/s", calls);
}

// nn.step_single_us: batch-1 StepLogits; nn.fwd_bwd_ms: ForwardSequence +
// BackwardSequence on one training minibatch. Both on the workload's own
// flavor network (hidden 200 on gen_many, 64 elsewhere).
void ReportNetworkLayers(const TracedPhase& phase, uint64_t seed, Report* report) {
  const cloudgen::SequenceNetwork& network = phase.model->FlavorModel().Network();
  const size_t input_dim = network.Config().input_dim;
  cloudgen::Rng rng(DeriveSeed(seed, "probe-net"));
  cloudgen::Matrix x(1, input_dim);
  x.RandomUniform(rng, 1.0f);
  cloudgen::LstmState state = network.MakeState(1);
  cloudgen::Matrix logits;
  cloudgen::StepWorkspace ws;
  constexpr size_t kBlock = 2000;
  constexpr size_t kBlocks = 9;
  std::vector<double> per_step;
  {
    CG_SPAN("probe.step_logits");
    for (size_t block = 0; block <= kBlocks; ++block) {
      state = network.MakeState(1);  // Bounded state magnitudes.
      const double t0 = NowSeconds();
      for (size_t i = 0; i < kBlock; ++i) {
        network.StepLogits(x, &state, &logits, &ws);
      }
      if (block > 0) per_step.push_back((NowSeconds() - t0) / kBlock);  // Block 0 warms.
    }
  }
  report->Set("nn.step_single_us", Median(per_step) * 1e6, "us", kBlocks * kBlock);

  cloudgen::SequenceNetwork copy = network;
  const cloudgen::WorkloadModelConfig config = ModelConfig(phase.shape);
  const size_t steps = config.flavor.seq_len;
  const size_t batch = config.flavor.batch_size;
  std::vector<cloudgen::Matrix> inputs(steps);
  std::vector<cloudgen::Matrix> dlogits(steps);
  for (size_t t = 0; t < steps; ++t) {
    inputs[t].Resize(batch, copy.Config().input_dim);
    inputs[t].RandomUniform(rng, 1.0f);
    dlogits[t].Resize(batch, copy.Config().output_dim);
    dlogits[t].RandomUniform(rng, 0.01f);
  }
  std::vector<cloudgen::Matrix> outputs;
  constexpr size_t kReps = 5;
  const double fwd_bwd_s = MedianSeconds(kReps, [&] {
    CG_SPAN("probe.fwd_bwd");
    copy.ZeroGrads();
    copy.ForwardSequence(inputs, &outputs);
    copy.BackwardSequence(dlogits);
  });
  report->Set("nn.fwd_bwd_ms", fwd_bwd_s * 1e3, "ms", kReps);
}

// core.tokens_per_job and core.gen_us_per_job: GenerateTraceRowsRange of
// kProbeTraces traces with the workload's model (no sink, no server).
// trace.sink_mb_per_s and trace.fsyncs_per_seal: those jobs appended to a
// SegmentedFileSink through the timing decorator.
void ReportGenerationLayers(const Args& args, const TracedPhase& phase, Report* report) {
  auto& registry = cloudgen::obs::Registry::Global();
  cloudgen::WorkloadModel::GenerateOptions options;
  options.from_period = kGenerationStart;
  options.to_period = kGenerationStart + kProbePeriods;
  const uint64_t base =
      cloudgen::WorkloadModel::TraceFamilyBase(DeriveSeed(args.seed, "probe-gen"));
  const auto before = registry.Snapshot();
  std::string rows;
  const double gen_s = MedianSeconds(kProbeReps, [&] {
    CG_SPAN("probe.generate");
    rows.clear();
    phase.model->GenerateTraceRowsRange(options, base, 0, kProbeTraces, &rows);
  });
  const auto after = registry.Snapshot();
  const double jobs = static_cast<double>(std::max<size_t>(1, CountRows(rows)));
  report->Set("core.gen_us_per_job", gen_s / jobs * 1e6, "us", kProbeReps);
  double tokens = 0.0;
  double gen_jobs = 0.0;
  if (CounterDelta(before, after, "gen.tokens", &tokens) &&
      CounterDelta(before, after, "gen.jobs", &gen_jobs) && gen_jobs > 0.0) {
    report->Set("core.tokens_per_job", tokens / gen_jobs, "count", kProbeReps);
  }

  cloudgen::Rng rng(DeriveSeed(args.seed, "probe-sink"));
  const cloudgen::Trace trace = phase.model->Generate(options, rng);
  std::vector<double> mb_per_s;
  uint64_t seals = 0;
  double fsyncs = 0.0;
  for (size_t rep = 0; rep < kSinkReps; ++rep) {
    CG_SPAN("probe.sink");
    cloudgen::SegmentedFileSink::Options sink_options;
    sink_options.dir = args.work_dir + "/probe-sink-" + std::to_string(rep);
    sink_options.segment_bytes = kSinkSegmentBytes;
    cloudgen::SegmentedFileSink sink(sink_options);
    Status status = sink.Init();
    TimingSink timing(&sink);
    const auto fsync_before = registry.Snapshot();
    for (size_t pass = 0; status.ok() && pass < kSinkPasses; ++pass) {
      status = timing.BeginTrace(pass);
      for (const cloudgen::Job& job : trace.Jobs()) {
        if (status.ok()) status = timing.Append(job);
      }
      if (status.ok()) status = timing.EndTrace();
      if (status.ok()) status = timing.CommitPoint(false, nullptr);
    }
    if (status.ok()) status = timing.Finish();
    const auto fsync_after = registry.Snapshot();
    std::error_code ignored;
    std::filesystem::remove_all(sink_options.dir, ignored);
    if (!status.ok() || timing.BusySeconds() <= 0.0) {
      report->Fail("sink probe: " + status.ToString());
      return;
    }
    mb_per_s.push_back(static_cast<double>(timing.Bytes()) / timing.BusySeconds() / 1e6);
    seals += timing.Seals();
    double file = 0.0;
    double dir = 0.0;
    if (CounterDelta(fsync_before, fsync_after, "io.fsync.file", &file) &&
        CounterDelta(fsync_before, fsync_after, "io.fsync.dir", &dir)) {
      fsyncs += file + dir;
    }
  }
  report->Set("trace.sink_mb_per_s", Median(mb_per_s), "MB/s", kSinkReps);
  if (seals > 0 && fsyncs > 0.0) {
    report->Set("trace.fsyncs_per_seal", fsyncs / static_cast<double>(seals), "count",
                kSinkReps);
  }
}

// glm.irls_fit_s / glm.irls_iters: BatchArrivalModel::Fit on the window.
void ReportIrlsLayer(const TracedPhase& phase, Report* report) {
  constexpr size_t kReps = 5;
  auto& registry = cloudgen::obs::Registry::Global();
  const auto before = registry.Snapshot();
  const cloudgen::ArrivalModelConfig config = ModelConfig(phase.shape).arrival;
  const double seconds = MedianSeconds(kReps, [&] {
    CG_SPAN("probe.irls_fit");
    cloudgen::BatchArrivalModel arrivals;
    arrivals.Fit(*phase.train, cloudgen::ArrivalGranularity::kBatches, config);
  });
  report->Set("glm.irls_fit_s", seconds, "s", kReps);
  double iters = 0.0;
  if (CounterDelta(before, registry.Snapshot(), "glm.irls_iters", &iters)) {
    report->Set("glm.irls_iters", iters / kReps, "count", kReps);
  }
}

// serve.health_rtt_ms_p50: FetchHealth on a fresh connection each time
// (connect, one frame, handler spawn, no generation), against the
// workload's server or, without one, a StreamServer started for the probe.
void ReportHealthLayer(const TracedPhase& phase, Report* report) {
  std::unique_ptr<cloudgen::serve::StreamServer> own;
  uint16_t port = phase.server_port;
  if (port == 0) {
    cloudgen::serve::ServerOptions options;
    options.bind_addr = "127.0.0.1";
    options.port = 0;
    own = std::make_unique<cloudgen::serve::StreamServer>(phase.model, options);
    const Status status = own->Start();
    if (!status.ok()) {
      report->Fail("health probe server: " + status.ToString());
      return;
    }
    port = own->Port();
  }
  std::vector<double> rtt;
  for (size_t i = 0; i < kHealthProbes; ++i) {
    CG_SPAN("probe.health");
    std::map<std::string, std::string> health;
    const double t0 = NowSeconds();
    if (cloudgen::serve::FetchHealth("127.0.0.1", port, 5000, &health).ok()) {
      rtt.push_back((NowSeconds() - t0) * 1e3);
    }
  }
  if (own != nullptr) {
    own->RequestDrain();
    const Status status = own->Wait();
    if (!status.ok()) report->Fail("health probe server: " + status.ToString());
  }
  if (rtt.empty()) {
    report->Fail("no FetchHealth call succeeded");
    return;
  }
  report->Set("serve.health_rtt_ms_p50", Median(rtt), "ms", rtt.size());
}

}  // namespace

bool TimeModelSetups(const Args& args, const WorkloadShape& shape, size_t reps,
                     std::unique_ptr<cloudgen::WorkloadModel>* model, std::vector<double>* times,
                     Report* report) {
  for (size_t rep = 0; rep < reps; ++rep) {
    model->reset();  // Each repetition pays the full load, as a user would.
    CG_SPAN("setup");
    const double t0 = NowSeconds();
    const Status status = LoadModel(args, shape, model);
    times->push_back(NowSeconds() - t0);
    if (!status.ok()) {
      report->Fail("setup: " + status.ToString());
      return false;
    }
  }
  return true;
}

void NotePoolUtilization(bool have_utilization, double utilization, size_t ops,
                         Report* report) {
  if (have_utilization && cloudgen::GlobalThreadPool().HasWorkers()) {
    report->Extra("util.pool_utilization", utilization, "ratio", ops);
  }
}

void FinishTracedRun(const Args& args, const TracedPhase& phase, Report* report) {
  // ParallelFor registers its counter on the first call, which the 1-thread
  // workloads may never make, so the count is a workload extra.
  double fors = 0.0;
  if (phase.ops > 0 && CounterDelta(phase.before, phase.after, "pool.parallel_fors", &fors)) {
    report->Extra("util.parallel_fors", fors / static_cast<double>(phase.ops), "count",
                  phase.ops);
  }
  if (phase.untraced > 0.0) {
    report->Set("bench.trace_overhead_pct",
                (phase.untraced - phase.traced) / phase.untraced * 100.0, "%", 2);
  }
  ReportTensorLayers(report);
  ReportNetworkLayers(phase, args.seed, report);
  ReportGenerationLayers(args, phase, report);
  ReportIrlsLayer(phase, report);
  ReportHealthLayer(phase, report);

  cloudgen::obs::TraceCollector::Global().SetEnabled(false);
  std::string spans = "{";
  for (const auto& [name, totals] : SpanSelfTimes()) {
    if (spans.size() > 1) spans += ",";
    spans += JsonString(name) + ":{\"count\":" + std::to_string(totals.count) +
             ",\"total_s\":" + JsonNumber(totals.total_s) +
             ",\"self_s\":" + JsonNumber(totals.self_s) + "}";
  }
  spans += "}";
  std::printf("perfbench-spans %s\n", spans.c_str());
  if (!args.trace_out.empty() && !WriteChromeTrace(args.trace_out)) {
    report->Fail("cannot write Chrome trace to " + args.trace_out);
  }
}

}  // namespace perfbench

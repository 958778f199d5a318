// serve: an in-process StreamServer on loopback with a 1-thread pool (so
// generation runs on the connection handler threads) and kClients
// closed-loop FetchStream clients on distinct tenants. Each client fetches a
// fresh short stream (one trace of kStreamPeriods periods sized to
// kStreamJobs expected jobs, its own seed) as soon as its previous one
// completes, until --seconds have passed and at
// least kMinStreams streams have completed, so p95 always has >= 10 samples
// beyond it.
//
// Checks: FetchStream verifies the server's whole-stream CRC; a seeded one in
// kKeepEvery streams is also kept and byte-compared against offline
// WorkloadModel::GenerateTraceRows for the same family.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <streambuf>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/src/common.h"
#include "src/obs/trace_span.h"
#include "src/serve/client.h"
#include "src/serve/server.h"
#include "src/util/metrics_json.h"
#include "src/util/thread_pool.h"

namespace perfbench {
namespace {

constexpr size_t kClients = 4;
constexpr int64_t kStreamPeriods = 144;  // Twelve hours.
constexpr double kStreamJobs = 800.0;
constexpr size_t kMinStreams = 200;
constexpr uint64_t kKeepEvery = 32;
constexpr size_t kGenShareStreams = 20;

// Output stream buffer that records when the first byte arrives and keeps
// the bytes only when asked to.
class FirstByteBuf final : public std::streambuf {
 public:
  explicit FirstByteBuf(bool keep) : keep_(keep) {}
  double FirstByteAt() const { return first_at_; }
  std::string& Bytes() { return bytes_; }

 protected:
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    Mark();
    if (keep_) bytes_.append(s, static_cast<size_t>(n));
    return n;
  }
  int_type overflow(int_type ch) override {
    if (ch != traits_type::eof()) {
      Mark();
      if (keep_) bytes_.push_back(static_cast<char>(ch));
    }
    return ch;
  }

 private:
  void Mark() {
    if (first_at_ == 0.0) first_at_ = NowSeconds();
  }
  bool keep_;
  double first_at_ = 0.0;
  std::string bytes_;
};

struct StreamSample {
  uint64_t seed = 0;
  double ttfb_s = 0.0;
  double total_s = 0.0;
  uint64_t rows = 0;
  bool kept = false;
  std::string bytes;
  std::string error;
};

struct PhaseResult {
  std::vector<StreamSample> streams;
  double seconds = 0.0;
  uint64_t rows = 0;
  double JobsPerSecond() const { return seconds > 0.0 ? rows / seconds : 0.0; }
};

class ServeWorkload {
 public:
  explicit ServeWorkload(const Args& args) : args_(args), shape_(ShapeFor(args.workload)) {}
  ~ServeWorkload() { StopServer(); }
  ServeWorkload(const ServeWorkload&) = delete;
  ServeWorkload& operator=(const ServeWorkload&) = delete;

  void Run(Report* report);

 private:
  cloudgen::serve::ServerOptions Options() const;
  // Times `reps` set-ups (LoadModel + StreamServer::Start), each replacing
  // the previous server, into `times`; the last server keeps running.
  bool Setup(size_t reps, std::vector<double>* times, Report* report);
  void StopServer();
  PhaseResult RunPhase(const char* phase);
  void Verify(const PhaseResult& phase, Report* report) const;
  void ReportLayers(const PhaseResult& untraced, Report* report);
  bool ServerCounters(cloudgen::obs::RegistrySnapshot* snap) const;

  const Args& args_;
  const WorkloadShape shape_;
  std::unique_ptr<cloudgen::WorkloadModel> model_;
  std::unique_ptr<cloudgen::serve::StreamServer> server_;
  cloudgen::Trace train_;
  double arrival_scale_ = 1.0;
  std::atomic<uint64_t> next_stream_{0};
};

cloudgen::serve::ServerOptions ServeWorkload::Options() const {
  cloudgen::serve::ServerOptions options;
  options.bind_addr = "127.0.0.1";
  options.port = 0;
  options.gen.from_period = kGenerationStart;
  options.gen.to_period = options.gen.from_period + kStreamPeriods;
  options.gen.arrival_scale = arrival_scale_;
  return options;
}

void ServeWorkload::StopServer() {
  if (server_ == nullptr) return;
  server_->RequestDrain();
  const Status status = server_->Wait();
  if (!status.ok()) std::fprintf(stderr, "perfbench: server: %s\n", status.ToString().c_str());
  server_.reset();
}

bool ServeWorkload::Setup(size_t reps, std::vector<double>* times, Report* report) {
  for (size_t rep = 0; rep < reps; ++rep) {
    StopServer();
    model_.reset();
    CG_SPAN("setup");
    const double t0 = NowSeconds();
    Status status = LoadModel(args_, shape_, &model_);
    double seconds = NowSeconds() - t0;
    if (status.ok() && train_.Jobs().empty()) {
      // First set-up only. Stream sizing: deterministic for the seed, and
      // not part of set-up.
      cloudgen::Trace trace;
      status = LoadTrace(args_, &trace);
      train_ = TrainWindow(trace);
      arrival_scale_ = ArrivalScaleFor(*model_, Options().gen, kStreamJobs,
                                       DeriveSeed(args_.seed, "calibrate"));
      report->Note("arrival_scale", JsonNumber(arrival_scale_));
    }
    if (status.ok()) {
      CG_SPAN("setup.server_start");
      const double t1 = NowSeconds();
      server_ = std::make_unique<cloudgen::serve::StreamServer>(model_.get(), Options());
      status = server_->Start();
      seconds += NowSeconds() - t1;
    }
    times->push_back(seconds);
    if (!status.ok()) {
      report->Fail("setup: " + status.ToString());
      return false;
    }
  }
  return true;
}

PhaseResult ServeWorkload::RunPhase(const char* phase) {
  const double start = NowSeconds();
  const double deadline = start + args_.seconds;
  std::atomic<size_t> completed{0};
  std::vector<std::vector<StreamSample>> per_client(kClients);
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      while (NowSeconds() < deadline || completed.load() < kMinStreams) {
        const uint64_t k = next_stream_.fetch_add(1);
        StreamSample sample;
        sample.seed = DeriveSeed(args_.seed, "serve", k);
        sample.kept = DeriveSeed(args_.seed, "serve-keep", k) % kKeepEvery == 0;
        cloudgen::serve::FetchOptions fetch;
        fetch.host = "127.0.0.1";
        fetch.port = server_->Port();
        fetch.tenant = "tenant-" + std::to_string(c);
        fetch.stream = std::string(phase) + "-" + std::to_string(k);
        fetch.seed = sample.seed;
        fetch.traces = 1;
        FirstByteBuf buf(sample.kept);
        std::ostream out(&buf);
        cloudgen::serve::FetchResult result;
        CG_SPAN("op.fetch_stream");
        const double t0 = NowSeconds();
        const Status status = cloudgen::serve::FetchStream(fetch, out, &result);
        const double t1 = NowSeconds();
        sample.total_s = t1 - t0;
        sample.ttfb_s = (buf.FirstByteAt() > 0.0 ? buf.FirstByteAt() : t1) - t0;
        sample.rows = result.rows;
        if (!status.ok()) sample.error = status.ToString();
        sample.bytes = std::move(buf.Bytes());
        per_client[c].push_back(std::move(sample));
        completed.fetch_add(1);
      }
    });
  }
  for (auto& client : clients) client.join();
  PhaseResult result;
  result.seconds = NowSeconds() - start;
  for (auto& samples : per_client) {
    for (auto& sample : samples) {
      if (sample.error.empty()) result.rows += sample.rows;
      result.streams.push_back(std::move(sample));
    }
  }
  return result;
}

void ServeWorkload::Verify(const PhaseResult& phase, Report* report) const {
  CG_SPAN("verify");
  const cloudgen::serve::ServerOptions options = Options();
  for (const StreamSample& sample : phase.streams) {
    ++report->attempted;
    std::string error = sample.error;
    if (error.empty() && sample.rows == 0) error = "empty stream";
    if (error.empty() && sample.kept) {
      std::string expected;
      model_->GenerateTraceRows(options.gen,
                                cloudgen::WorkloadModel::TraceFamilyBase(sample.seed), 0,
                                &expected);
      if (sample.bytes != expected || CountRows(sample.bytes) != sample.rows) {
        error = "stream bytes differ from offline GenerateTraceRows";
      }
    }
    if (!error.empty()) {
      ++report->failed;
      report->Fail("stream seed " + std::to_string(sample.seed) + ": " + error);
    }
  }
}

bool ServeWorkload::ServerCounters(cloudgen::obs::RegistrySnapshot* snap) const {
  std::string json;
  return cloudgen::serve::FetchMetricsJson("127.0.0.1", server_->Port(), 5000, &json).ok() &&
         cloudgen::ParseMetricsSnapshot(json, snap).ok();
}

void ServeWorkload::Run(Report* report) {
  cloudgen::SetGlobalThreads(shape_.threads);
  std::vector<double> setup_times;
  if (!Setup(kSetupRepsBefore, &setup_times, report)) return;
  cloudgen::obs::TraceCollector::Global().SetEnabled(false);  // Traced runs trace set-up only.
  PhaseResult untraced = RunPhase("untraced");
  const double peak_rss_mb = PeakRssMiB();  // Before the checks allocate.
  Verify(untraced, report);
  if (!args_.trace) {
    std::vector<double> ttfb;
    std::vector<double> total;
    for (const StreamSample& sample : untraced.streams) {
      if (!sample.error.empty()) continue;
      ttfb.push_back(sample.ttfb_s * 1e3);
      total.push_back(sample.total_s * 1e3);
    }
    report->Set("jobs_per_s", untraced.JobsPerSecond(), "jobs/s", untraced.streams.size());
    report->Extra("ttfb_p50_ms", Median(ttfb), "ms", ttfb.size());
    report->Extra("stream_p50_ms", Median(total), "ms", total.size());
    if (PercentileSupported(ttfb.size(), 0.95)) {
      report->Extra("ttfb_p95_ms", Percentile(ttfb, 0.95), "ms", ttfb.size());
      report->Extra("stream_p95_ms", Percentile(total, 0.95), "ms", total.size());
    }
    report->Set("peak_rss_mb", peak_rss_mb, "MiB", 1);
    if (!Setup(kSetupRepsAfter, &setup_times, report)) return;
    report->Set("setup_s", Median(setup_times), "s", setup_times.size());
    report->Note("rows_per_stream",
                 JsonNumber(static_cast<double>(untraced.rows) /
                            static_cast<double>(std::max<size_t>(1, ttfb.size()))));
  } else {
    ReportLayers(untraced, report);
  }
  StopServer();
  report->Note("clients", std::to_string(kClients));
  report->Note("periods_per_stream", std::to_string(kStreamPeriods));
  report->SetSuccessRate();
}

void ServeWorkload::ReportLayers(const PhaseResult& untraced, Report* report) {
  auto& registry = cloudgen::obs::Registry::Global();
  cloudgen::obs::TraceCollector::Global().SetEnabled(true);
  cloudgen::obs::RegistrySnapshot server_before;
  const bool have_before = ServerCounters(&server_before);
  TracedPhase phase;
  phase.model = model_.get();
  phase.train = &train_;
  phase.shape = shape_;
  phase.server_port = server_->Port();
  phase.before = registry.Snapshot();
  PhaseResult traced = RunPhase("traced");
  phase.after = registry.Snapshot();
  Verify(traced, report);
  phase.ops = traced.streams.size();
  phase.untraced = untraced.JobsPerSecond();
  phase.traced = traced.JobsPerSecond();

  // This workload's own layer numbers, beyond the manifest's common set.
  cloudgen::obs::RegistrySnapshot server_after;
  if (have_before && ServerCounters(&server_after)) {
    const std::pair<const char*, const char*> counters[] = {
        {"serve.backpressure_stalls", "serve.backpressure.stalls"},
        {"serve.rejects", "serve.rejects"},
        {"serve.reconnects", "serve.client.reconnects"},
    };
    for (const auto& [metric, counter] : counters) {
      double delta = 0.0;
      // Some counters register on their first event; absent means none yet.
      if (CounterDelta(server_before, server_after, counter, &delta)) {
        report->Extra(metric, delta, "count", phase.ops);
      }
    }
  }
  // Generation's share of a stream: the same streams regenerated offline.
  const cloudgen::serve::ServerOptions options = Options();
  double offline_s = 0.0;
  double stream_s = 0.0;
  size_t measured = 0;
  for (const StreamSample& sample : traced.streams) {
    if (measured == kGenShareStreams) break;
    if (!sample.error.empty()) continue;
    CG_SPAN("probe.offline_generate");
    std::string rows;
    const double t0 = NowSeconds();
    model_->GenerateTraceRowsRange(options.gen,
                                   cloudgen::WorkloadModel::TraceFamilyBase(sample.seed), 0, 1,
                                   &rows);
    offline_s += NowSeconds() - t0;
    stream_s += sample.total_s;
    ++measured;
  }
  if (stream_s > 0.0) report->Extra("serve.gen_share", offline_s / stream_s, "ratio", measured);
  FinishTracedRun(args_, phase, report);
}

}  // namespace

void RunServe(const Args& args, Report* report) { ServeWorkload(args).Run(report); }

}  // namespace perfbench

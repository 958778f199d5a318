#include "perfbench/src/instruments.h"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <vector>

#if defined(__AVX512F__) || defined(__AVX2__)
#include <immintrin.h>
#endif

#include "perfbench/src/common.h"
#include "src/obs/metrics.h"
#include "src/obs/trace_span.h"
#include "src/tensor/matrix.h"
#include "src/util/rng.h"
#include "src/util/thread_pool.h"

namespace perfbench {
namespace {

uint64_t NowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

// Accumulates the wall time of one wrapped call into `*busy_ns`.
class CallTimer {
 public:
  CallTimer(uint64_t* busy_ns, uint64_t* calls) : busy_ns_(busy_ns), start_(NowNs()) {
    ++*calls;
  }
  ~CallTimer() { *busy_ns_ += NowNs() - start_; }
  CallTimer(const CallTimer&) = delete;
  CallTimer& operator=(const CallTimer&) = delete;

 private:
  uint64_t* busy_ns_;
  uint64_t start_;
};

}  // namespace

cloudgen::Status TimingSink::BeginTrace(size_t trace_index) {
  CallTimer timer(&busy_ns_, &calls_);
  return inner_->BeginTrace(trace_index);
}

cloudgen::Status TimingSink::Append(const cloudgen::Job& job) {
  CallTimer timer(&busy_ns_, &calls_);
  const uint64_t before = inner_->BufferedBytes();
  cloudgen::Status status = inner_->Append(job);
  bytes_ += inner_->BufferedBytes() - before;
  return status;
}

cloudgen::Status TimingSink::EndTrace() {
  CallTimer timer(&busy_ns_, &calls_);
  return inner_->EndTrace();
}

cloudgen::Status TimingSink::CommitPoint(bool force, bool* sealed) {
  CallTimer timer(&busy_ns_, &calls_);
  bool did_seal = false;
  cloudgen::Status status = inner_->CommitPoint(force, &did_seal);
  seals_ += did_seal ? 1 : 0;
  if (sealed != nullptr) {
    *sealed = did_seal;
  }
  return status;
}

cloudgen::Status TimingSink::ResumeAt(uint64_t segments_sealed) {
  CallTimer timer(&busy_ns_, &calls_);
  return inner_->ResumeAt(segments_sealed);
}

cloudgen::Status TimingSink::Finish() {
  CallTimer timer(&busy_ns_, &calls_);
  const size_t before = inner_->NumSegments();
  cloudgen::Status status = inner_->Finish();
  seals_ += inner_->NumSegments() - before;
  return status;
}

double FmaPeakGflops() {
  // Independent accumulator chains hide the FMA latency; operands stay in
  // registers, so this is the core's arithmetic ceiling, not a memory test.
  constexpr size_t kIters = 1 << 20;
  std::vector<double> rates;
  volatile float sink = 0.0f;
  for (int window = 0; window < 7; ++window) {
    const double t0 = NowSeconds();
    double flops = 0.0;
#if defined(__AVX512F__)
    __m512 acc[12];
    for (auto& a : acc) a = _mm512_set1_ps(1.0f);
    const __m512 mul = _mm512_set1_ps(0.999999f);
    const __m512 add = _mm512_set1_ps(1e-7f);
    for (size_t i = 0; i < kIters; ++i) {
      for (auto& a : acc) a = _mm512_fmadd_ps(a, mul, add);
    }
    float lanes[16];
    __m512 total = acc[0];
    for (size_t j = 1; j < 12; ++j) total = _mm512_add_ps(total, acc[j]);
    _mm512_storeu_ps(lanes, total);
    for (float lane : lanes) sink = sink + lane;
    flops = 2.0 * 16 * 12 * static_cast<double>(kIters);
#elif defined(__AVX2__) && defined(__FMA__)
    __m256 acc[10];
    for (auto& a : acc) a = _mm256_set1_ps(1.0f);
    const __m256 mul = _mm256_set1_ps(0.999999f);
    const __m256 add = _mm256_set1_ps(1e-7f);
    for (size_t i = 0; i < kIters; ++i) {
      for (auto& a : acc) a = _mm256_fmadd_ps(a, mul, add);
    }
    float lanes[8];
    __m256 total = acc[0];
    for (size_t j = 1; j < 10; ++j) total = _mm256_add_ps(total, acc[j]);
    _mm256_storeu_ps(lanes, total);
    for (float lane : lanes) sink = sink + lane;
    flops = 2.0 * 8 * 10 * static_cast<double>(kIters);
#else
    float acc[8] = {1, 1, 1, 1, 1, 1, 1, 1};
    for (size_t i = 0; i < kIters; ++i) {
      for (float& a : acc) a = a * 0.999999f + 1e-7f;
    }
    for (float a : acc) sink = sink + a;
    flops = 2.0 * 8 * static_cast<double>(kIters);
#endif
    rates.push_back(flops / (NowSeconds() - t0) * 1e-9);
  }
  (void)sink;
  return Median(rates);
}

GemmProbeResult ProbeGemm(const GemmShape& shape, double budget_s) {
  cloudgen::Rng rng(DeriveSeed(17, "gemm", shape.m * 1000003u + shape.k * 1009u + shape.n));
  cloudgen::Matrix a = shape.trans_a ? cloudgen::Matrix(shape.k, shape.m)
                                     : cloudgen::Matrix(shape.m, shape.k);
  cloudgen::Matrix b = shape.trans_b ? cloudgen::Matrix(shape.n, shape.k)
                                     : cloudgen::Matrix(shape.k, shape.n);
  cloudgen::Matrix c(shape.m, shape.n);
  a.RandomUniform(rng, 1.0f);
  b.RandomUniform(rng, 1.0f);

  GemmProbeResult result;
  result.flops_per_call = 2.0 * static_cast<double>(shape.m * shape.k * shape.n);
  result.bytes_per_call =
      4.0 * static_cast<double>(shape.m * shape.k + shape.k * shape.n + 2 * shape.m * shape.n);
  // Calibrate a block to ~1/9 of the budget, then take the median of 9.
  size_t per_block = 1;
  for (;;) {
    const double t0 = NowSeconds();
    for (size_t i = 0; i < per_block; ++i) {
      cloudgen::Gemm(shape.trans_a, shape.trans_b, 1.0f, a, b, 1.0f, &c);
      c.Scale(0.5f);
    }
    if (NowSeconds() - t0 >= budget_s / 9.0 || per_block >= (size_t{1} << 24)) break;
    per_block *= 2;
  }
  std::vector<double> per_call;
  for (int block = 0; block < 9; ++block) {
    const double t0 = NowSeconds();
    for (size_t i = 0; i < per_block; ++i) {
      cloudgen::Gemm(shape.trans_a, shape.trans_b, 1.0f, a, b, 1.0f, &c);
      c.Scale(0.5f);
    }
    per_call.push_back((NowSeconds() - t0) / static_cast<double>(per_block));
    result.calls += per_block;
  }
  result.seconds_per_call = Median(per_call);
  result.gflops = result.flops_per_call / result.seconds_per_call * 1e-9;
  return result;
}

PoolSampler::PoolSampler(int interval_ms) : thread_([this, interval_ms] { Loop(interval_ms); }) {}

PoolSampler::~PoolSampler() {
  stop_.store(true);
  if (thread_.joinable()) thread_.join();
}

void PoolSampler::Loop(int interval_ms) {
  auto& registry = cloudgen::obs::Registry::Global();
  while (!stop_.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
    cloudgen::GlobalThreadPool().PublishGauges();
    double value = 0.0;
    if (GaugeValue(registry.Snapshot(), "pool.utilization", &value)) {
      sum_ += value;
      ++samples_;
      seen_ = true;
    }
  }
}

bool PoolSampler::Mean(double* mean) {
  stop_.store(true);
  if (thread_.joinable()) thread_.join();
  if (!seen_ || samples_ == 0) return false;
  *mean = sum_ / static_cast<double>(samples_);
  return true;
}

std::map<std::string, SpanTotals> SpanSelfTimes() {
  std::vector<cloudgen::obs::SpanEvent> events =
      cloudgen::obs::TraceCollector::Global().Events();
  // Per thread, by start ascending and longer spans first, so a stack of
  // open spans yields each span's direct parent.
  std::sort(events.begin(), events.end(), [](const auto& x, const auto& y) {
    if (x.tid != y.tid) return x.tid < y.tid;
    if (x.ts_us != y.ts_us) return x.ts_us < y.ts_us;
    return x.dur_us > y.dur_us;
  });
  std::vector<double> child_us(events.size(), 0.0);
  std::vector<size_t> stack;
  for (size_t i = 0; i < events.size(); ++i) {
    const auto& event = events[i];
    while (!stack.empty()) {
      const auto& top = events[stack.back()];
      if (top.tid == event.tid && event.ts_us + event.dur_us <= top.ts_us + top.dur_us) break;
      stack.pop_back();
    }
    if (!stack.empty()) child_us[stack.back()] += static_cast<double>(event.dur_us);
    stack.push_back(i);
  }
  std::map<std::string, SpanTotals> totals;
  for (size_t i = 0; i < events.size(); ++i) {
    SpanTotals& t = totals[events[i].name];
    t.total_s += static_cast<double>(events[i].dur_us) * 1e-6;
    t.self_s += std::max(0.0, static_cast<double>(events[i].dur_us) - child_us[i]) * 1e-6;
    ++t.count;
  }
  return totals;
}

bool WriteChromeTrace(const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  cloudgen::obs::TraceCollector::Global().WriteChromeTrace(out);
  return static_cast<bool>(out);
}

}  // namespace perfbench

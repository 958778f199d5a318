// Layer instruments that live in the benchmark, outside the program:
//  * TimingSink      a TraceSink decorator that counts calls and bytes and
//                    accumulates the time spent in the wrapped sink;
//  * FmaPeakGflops   a register-resident FMA loop, the roofline denominator;
//  * GemmGflops      Gemm timed at a given shape, with FLOPs and bytes moved
//                    computed from the tensor sizes (not measured);
//  * PoolSampler     periodic readings of the thread-pool utilization gauge;
//  * SpanSelfTimes   per-span-name self time from the obs trace collector.
#ifndef PERFBENCH_SRC_INSTRUMENTS_H_
#define PERFBENCH_SRC_INSTRUMENTS_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <thread>

#include "src/trace/trace_sink.h"

namespace perfbench {

class TimingSink final : public cloudgen::TraceSink {
 public:
  explicit TimingSink(cloudgen::SegmentedFileSink* inner) : inner_(inner) {}

  cloudgen::Status BeginTrace(size_t trace_index) override;
  cloudgen::Status Append(const cloudgen::Job& job) override;
  cloudgen::Status EndTrace() override;
  cloudgen::Status CommitPoint(bool force, bool* sealed) override;
  cloudgen::Status ResumeAt(uint64_t segments_sealed) override;
  cloudgen::Status Finish() override;

  double BusySeconds() const { return busy_ns_ * 1e-9; }
  uint64_t Calls() const { return calls_; }
  uint64_t Bytes() const { return bytes_; }
  uint64_t Seals() const { return seals_; }

 private:
  cloudgen::SegmentedFileSink* inner_;
  uint64_t busy_ns_ = 0;
  uint64_t calls_ = 0;
  uint64_t bytes_ = 0;
  uint64_t seals_ = 0;
};

// Single-core FMA throughput in GFLOP/s (2 FLOPs per lane per FMA), median
// of several short windows.
double FmaPeakGflops();

struct GemmShape {
  bool trans_a = false;
  bool trans_b = false;
  size_t m = 1;  // Rows of op(A) and C.
  size_t k = 1;
  size_t n = 1;  // Columns of op(B) and C.
};
struct GemmProbeResult {
  double gflops = 0.0;          // Computed FLOPs / measured seconds.
  double flops_per_call = 0.0;  // Computed: 2*m*k*n.
  double bytes_per_call = 0.0;  // Computed: 4*(m*k + k*n + 2*m*n).
  double seconds_per_call = 0.0;
  size_t calls = 0;
};
// Times cloudgen::Gemm(beta = 1) on random operands of `shape` for about
// `budget_s` seconds and reports the median of several blocks.
GemmProbeResult ProbeGemm(const GemmShape& shape, double budget_s);

// Samples `pool.utilization` (via ThreadPool::PublishGauges) every
// `interval_ms` on its own thread while alive.
class PoolSampler {
 public:
  explicit PoolSampler(int interval_ms);
  ~PoolSampler();
  PoolSampler(const PoolSampler&) = delete;
  PoolSampler& operator=(const PoolSampler&) = delete;

  // Stops sampling and reports the mean reading; false when the gauge
  // never existed.
  bool Mean(double* mean);

 private:
  void Loop(int interval_ms);

  std::atomic<bool> stop_{false};
  double sum_ = 0.0;
  size_t samples_ = 0;
  bool seen_ = false;
  std::thread thread_;
};

// Self time per span name over every span the global collector recorded:
// a span's duration minus the time covered by the spans directly nested in
// it on the same thread.
struct SpanTotals {
  double total_s = 0.0;
  double self_s = 0.0;
  size_t count = 0;
};
std::map<std::string, SpanTotals> SpanSelfTimes();

// Writes the collector's spans as Chrome trace_event JSON to `path`.
bool WriteChromeTrace(const std::string& path);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_INSTRUMENTS_H_

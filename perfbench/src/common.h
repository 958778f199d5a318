// Shared pieces of the perfbench program: command-line arguments, the result
// record every workload fills, seed derivation, timing and statistics
// helpers, and the benchmark inputs (synthesized trace + trained model
// files) that every workload reads.
#ifndef PERFBENCH_SRC_COMMON_H_
#define PERFBENCH_SRC_COMMON_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/core/workload_model.h"
#include "src/obs/metrics.h"
#include "src/trace/trace.h"
#include "src/util/status.h"

namespace perfbench {

using cloudgen::Status;

struct Args {
  std::string phase;     // "prepare" or "run".
  std::string workload;  // gen_many | gen_stream | serve | train.
  std::string work_dir;  // Inputs and scratch outputs; created by prepare.
  std::string trace_out; // Chrome trace path for traced runs.
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

// One reported metric. `samples` is how many measurements the value
// aggregates (ops, streams, repetitions); it is reported as provenance.
struct Metric {
  double value = 0.0;
  std::string unit;
  size_t samples = 0;
};

// What one run prints: the verdict, the metrics, and provenance (rendered
// JSON values keyed by name).
//
// `metrics` are the manifest's metrics (BENCHMARK.json): every workload
// reports the same end-to-end set untraced and the same per-layer set traced.
// `extras` are numbers that exist on some workloads only (serve latency
// percentiles, train quality, sink share of generation, ...); they go on the
// provenance line, never on the result line.
struct Report {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, Metric> metrics;
  std::map<std::string, Metric> extras;
  std::map<std::string, std::string> provenance;
  std::vector<std::string> errors;

  void Set(const std::string& name, double value, const std::string& unit,
           size_t samples) {
    metrics[name] = Metric{value, unit, samples};
  }
  void Extra(const std::string& name, double value, const std::string& unit,
             size_t samples) {
    extras[name] = Metric{value, unit, samples};
  }
  void Note(const std::string& key, const std::string& json_value) {
    provenance[key] = json_value;
  }
  // Records a failed check; the run's `correct` turns false.
  void Fail(const std::string& what);
  void SetSuccessRate();
};

// Every workload reads the same kind of input: an AzureLike trace at a
// quarter of the default job volume, with a 14-day training window. A long
// window averages the profile's per-day random level (log-sigma 0.35), which
// sets how many jobs the fitted arrival model asks for; with a short window
// that level, and with it every per-stream latency, would swing by tens of
// percent from one seed to the next.
inline constexpr double kSynthScale = 0.25;
inline constexpr int64_t kTrainDays = 14;

// Workload shapes. Everything a run does is a function of these plus the
// seed, so two checkouts given the same seed do identical work.
struct WorkloadShape {
  size_t hidden = 64;
  size_t layers = 2;
  size_t epochs = 1;   // Training epochs (of the loaded model, or of `train`).
  size_t threads = 1;  // Global pool size while measuring.
};
WorkloadShape ShapeFor(const std::string& workload);

// Seed derivation: every stream of randomness a run uses (synthesis,
// training, per-operation generation seeds, sampling of checks) is
// SplitMix64(seed, tag, index), so the workload seed alone fixes the inputs.
uint64_t DeriveSeed(uint64_t seed, const char* tag, uint64_t index = 0);

double NowSeconds();
// Median and linear-interpolated percentile (q in [0, 1]) of `values`.
double Median(std::vector<double> values);
double Percentile(std::vector<double> values, double q);
// A percentile q is reported only when at least ten samples lie beyond it.
bool PercentileSupported(size_t samples, double q);

double PeakRssMiB();
size_t HardwareThreads();

std::string JsonString(const std::string& s);
std::string JsonNumber(double v);

// Benchmark inputs written by the prepare phase.
std::string JobsCsv(const Args& args);
std::string FlavorsCsv(const Args& args);
std::string ModelPrefix(const Args& args);
cloudgen::WorkloadModelConfig ModelConfig(const WorkloadShape& shape);
// Synthesizes the AzureLike trace and, for the generation workloads, trains
// and saves the model generation loads. Not part of any timed number.
Status PrepareInputs(const Args& args);

// The user-visible set-up of the generation workloads and serve:
// ReadTraceCsv, the training window, LoadNetworksFromFiles (which refits the
// arrival model).
Status LoadTrace(const Args& args, cloudgen::Trace* trace);
Status LoadModel(const Args& args, const WorkloadShape& shape,
                 std::unique_ptr<cloudgen::WorkloadModel>* model);

// The training window [0, kTrainDays) of `trace`, censored at its end.
cloudgen::Trace TrainWindow(const cloudgen::Trace& trace);
// First generated period: the day after the training window.
inline constexpr int64_t kGenerationStart = kTrainDays * cloudgen::kPeriodsPerDay;

// Operation sizing. The fitted arrival level and the trained model's batch
// sizes differ from seed to seed, so a fixed horizon would carry a
// seed-dependent number of jobs and every per-operation latency would
// follow the seed. Instead each workload fixes the expected job count of its
// operation over [options.from_period, options.to_period) and derives
// GenerateOptions::arrival_scale from the model:
//   expected batches = sum over the horizon of the DOH-averaged Poisson
//                      batch rate (day N - k, k ~ Geometric(p), floor 1);
//   jobs per batch   = rows / distinct batch user ids in a few traces the
//                      model generates from `seed` (every batch gets a
//                      fresh synthetic user id).
double ArrivalScaleFor(const cloudgen::WorkloadModel& model,
                       cloudgen::WorkloadModel::GenerateOptions options, double target_jobs,
                       uint64_t seed);

// Deltas of registry counters between two snapshots; a counter that is
// missing from `after` is reported absent (the layer metric it feeds is then
// skipped rather than failing the run).
bool CounterDelta(const cloudgen::obs::RegistrySnapshot& before,
                  const cloudgen::obs::RegistrySnapshot& after, const std::string& name,
                  double* delta);
bool GaugeValue(const cloudgen::obs::RegistrySnapshot& snap, const std::string& name,
                double* value);

// Counts rows (newline-terminated lines) in `bytes`.
size_t CountRows(const std::string& bytes);

// Runs `fn` `reps` times and returns the median wall seconds per call.
template <typename Fn>
double MedianSeconds(size_t reps, Fn&& fn) {
  std::vector<double> times;
  for (size_t i = 0; i < reps; ++i) {
    const double t0 = NowSeconds();
    fn();
    times.push_back(NowSeconds() - t0);
  }
  return Median(times);
}

// Set-up repetitions per run, before and after the timed phase; setup_s is
// the median of all of them. The machine flips between fast and slow
// states within seconds (one gen_many run's set-ups took 0.47 s, then
// 0.69 s), so set-ups taken at both ends of the run sample its state over
// the whole run, as the phase's throughput does, rather than over its
// first seconds.
inline constexpr size_t kSetupRepsBefore = 4;
inline constexpr size_t kSetupRepsAfter = 5;

// Times `reps` full LoadModel calls (spans setup.*), appending each to
// `times`, and keeps the last model. Returns false (after recording the
// failure) when a load fails.
bool TimeModelSetups(const Args& args, const WorkloadShape& shape, size_t reps,
                     std::unique_ptr<cloudgen::WorkloadModel>* model, std::vector<double>* times,
                     Report* report);

// What a traced run hands to FinishTracedRun: the workload's model and
// training window, the registry around its traced phase, and its primary
// throughput (jobs/s) in the untraced and the traced phase.
struct TracedPhase {
  const cloudgen::WorkloadModel* model = nullptr;
  const cloudgen::Trace* train = nullptr;
  WorkloadShape shape;
  uint16_t server_port = 0;  // A running StreamServer; 0 starts one to probe.
  size_t ops = 0;
  cloudgen::obs::RegistrySnapshot before;
  cloudgen::obs::RegistrySnapshot after;
  double untraced = 0.0;
  double traced = 0.0;
};

// Closes a traced run. Reports every per-layer metric of the manifest (the
// same set on every workload: fixed-shape tensor probes, probes of the
// workload's own network, generation, sink, arrival fit and health RTT, and
// the tracing overhead), adds the phase's ParallelFor count to the extras,
// prints span self times to stdout and writes the Chrome trace to
// args.trace_out.
void FinishTracedRun(const Args& args, const TracedPhase& phase, Report* report);

// Adds util.pool_utilization to the extras when the pool has workers (a
// 1-thread pool runs everything inline, so it has no utilization).
void NotePoolUtilization(bool have_utilization, double utilization, size_t ops,
                         Report* report);

// Entry points, one per workload. Each fills `report` with the metrics of
// its trace mode (end-to-end when args.trace is false, per-layer otherwise).
void RunGenMany(const Args& args, Report* report);
void RunGenStream(const Args& args, Report* report);
void RunServe(const Args& args, Report* report);
void RunTrain(const Args& args, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_COMMON_H_

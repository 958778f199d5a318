#include "perfbench/src/common.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <set>
#include <thread>

#include "src/obs/trace_span.h"
#include "src/synth/synthetic_cloud.h"
#include "src/trace/trace_io.h"
#include "src/util/rng.h"
#include "src/util/strings.h"
#include "src/util/thread_pool.h"

namespace perfbench {

void Report::Fail(const std::string& what) {
  correct = false;
  errors.push_back(what);
}

void Report::SetSuccessRate() {
  const double verified = static_cast<double>(attempted - std::min(failed, attempted));
  Set("success_rate", attempted == 0 ? 0.0 : verified / static_cast<double>(attempted),
      "ratio", attempted);
  if (attempted == 0) Fail("no operation was attempted");
  if (failed > 0) correct = false;
}

WorkloadShape ShapeFor(const std::string& workload) {
  WorkloadShape shape;
  if (workload == "gen_many") {
    shape.hidden = 200;  // Paper scale.
    shape.threads = 2;
  } else if (workload == "train") {
    shape.epochs = 2;
    shape.threads = 2;
  }
  return shape;
}

uint64_t DeriveSeed(uint64_t seed, const char* tag, uint64_t index) {
  uint64_t h = 0xcbf29ce484222325ull;  // FNV-1a over the tag.
  for (const char* p = tag; *p != '\0'; ++p) {
    h = (h ^ static_cast<unsigned char>(*p)) * 0x100000001b3ull;
  }
  uint64_t z = seed * 0x9E3779B97F4A7C15ull + h + index * 0xD1B54A32D192ED03ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return (z ^ (z >> 31)) & 0x7fffffffffffffffull;
}

double NowSeconds() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double Median(std::vector<double> values) { return Percentile(std::move(values), 0.5); }

bool PercentileSupported(size_t samples, double q) {
  return static_cast<double>(samples) * (1.0 - q) >= 10.0;
}

double PeakRssMiB() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

size_t HardwareThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<size_t>(hw);
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JobsCsv(const Args& args) { return args.work_dir + "/jobs.csv"; }
std::string FlavorsCsv(const Args& args) { return args.work_dir + "/flavors.csv"; }
std::string ModelPrefix(const Args& args) { return args.work_dir + "/model"; }

cloudgen::WorkloadModelConfig ModelConfig(const WorkloadShape& shape) {
  // The CLI's training defaults (cli/cloudgen_main.cc ConfigFrom).
  cloudgen::WorkloadModelConfig config;
  config.flavor.epochs = shape.epochs;
  config.flavor.hidden_dim = shape.hidden;
  config.flavor.num_layers = shape.layers;
  config.flavor.learning_rate = 5e-3f;
  config.flavor.lr_decay = 0.93f;
  config.lifetime.epochs = shape.epochs;
  config.lifetime.hidden_dim = shape.hidden;
  config.lifetime.num_layers = shape.layers;
  config.lifetime.learning_rate = 5e-3f;
  config.lifetime.lr_decay = 0.93f;
  return config;
}

Status PrepareInputs(const Args& args) {
  const WorkloadShape shape = ShapeFor(args.workload);
  const cloudgen::SyntheticCloud cloud(cloudgen::AzureLikeProfile(kSynthScale),
                                       DeriveSeed(args.seed, "synth"));
  const cloudgen::Trace full = cloud.Generate();
  CG_RETURN_IF_ERROR(cloudgen::WriteTraceCsv(full, JobsCsv(args), FlavorsCsv(args)));
  if (args.workload == "train") {
    return cloudgen::OkStatus();  // Training is the workload itself.
  }
  // Train the model generation loads. Training is bitwise-identical at any
  // thread count, so use every core here; it is an input, not a measurement.
  cloudgen::SetGlobalThreads(HardwareThreads());
  cloudgen::WorkloadModel model;
  cloudgen::Rng rng(DeriveSeed(args.seed, "model-train"));
  CG_RETURN_IF_ERROR(model.Train(TrainWindow(full), ModelConfig(shape), rng));
  return model.SaveToFiles(ModelPrefix(args));
}

Status LoadTrace(const Args& args, cloudgen::Trace* trace) {
  cloudgen::TraceCsvReadOptions options;
  return cloudgen::ReadTraceCsv(JobsCsv(args), FlavorsCsv(args), options, trace);
}

Status LoadModel(const Args& args, const WorkloadShape& shape,
                 std::unique_ptr<cloudgen::WorkloadModel>* model) {
  cloudgen::Trace trace;
  {
    CG_SPAN("setup.read_csv");
    CG_RETURN_IF_ERROR(LoadTrace(args, &trace));
  }
  CG_SPAN("setup.load_networks");
  auto loaded = std::make_unique<cloudgen::WorkloadModel>();
  CG_RETURN_IF_ERROR(loaded->LoadNetworksFromFiles(ModelPrefix(args), TrainWindow(trace),
                                                   ModelConfig(shape)));
  *model = std::move(loaded);
  return cloudgen::OkStatus();
}

cloudgen::Trace TrainWindow(const cloudgen::Trace& trace) {
  return cloudgen::ApplyObservationWindow(trace, 0, kGenerationStart, kGenerationStart);
}

double ArrivalScaleFor(const cloudgen::WorkloadModel& model,
                       cloudgen::WorkloadModel::GenerateOptions options, double target_jobs,
                       uint64_t seed) {
  const cloudgen::BatchArrivalModel& arrivals = model.ArrivalModel();
  const int history = arrivals.HistoryDays();
  const double p = arrivals.Config().doh_geometric_p;
  std::vector<double> doh_weight(static_cast<size_t>(history) + 1, 0.0);
  double tail = 1.0;
  for (int k = 0; k + 1 < history; ++k) {
    doh_weight[static_cast<size_t>(history - k)] = p * tail;
    tail *= 1.0 - p;
  }
  doh_weight[1] += tail;
  double batches = 0.0;
  for (int64_t period = options.from_period; period < options.to_period; ++period) {
    for (int day = 1; day <= history; ++day) {
      batches += doh_weight[static_cast<size_t>(day)] * arrivals.Rate(period, day);
    }
  }

  constexpr size_t kCalibrationTraces = 2;
  options.arrival_scale = 1.0;
  options.to_period = options.from_period + cloudgen::kPeriodsPerDay / 2;
  std::string rows;
  model.GenerateTraceRowsRange(options, seed, 0, kCalibrationTraces, &rows);
  // Row: trace,start,end,flavor,user,censored. A batch is (trace, user).
  std::set<std::string> batch_ids;
  for (const std::string& row : cloudgen::Split(rows, '\n')) {
    const std::vector<std::string> fields = cloudgen::Split(row, ',');
    if (fields.size() >= 5) batch_ids.insert(fields[0] + ":" + fields[4]);
  }
  const double jobs_per_batch =
      batch_ids.empty() ? 1.0 : static_cast<double>(CountRows(rows)) / batch_ids.size();
  const double expected = batches * jobs_per_batch;
  return expected > 0.0 ? target_jobs / expected : 1.0;
}

bool CounterDelta(const cloudgen::obs::RegistrySnapshot& before,
                  const cloudgen::obs::RegistrySnapshot& after, const std::string& name,
                  double* delta) {
  const auto it = after.counters.find(name);
  if (it == after.counters.end()) return false;
  const auto base = before.counters.find(name);
  const uint64_t start = base == before.counters.end() ? 0 : base->second;
  *delta = static_cast<double>(it->second - start);
  return true;
}

bool GaugeValue(const cloudgen::obs::RegistrySnapshot& snap, const std::string& name,
                double* value) {
  const auto it = snap.gauges.find(name);
  if (it == snap.gauges.end()) return false;
  *value = it->second;
  return true;
}

size_t CountRows(const std::string& bytes) {
  return static_cast<size_t>(std::count(bytes.begin(), bytes.end(), '\n'));
}

}  // namespace perfbench

// perfbench: the cloudgen repository benchmark program (see ../README.md).
//
//   perfbench --phase prepare --workload W --seed N --work-dir DIR
//   perfbench --phase run --workload W --seed N --seconds S --trace 0|1
//             --work-dir DIR [--trace-out FILE]
//
// `prepare` writes the run's inputs (synthesized trace, trained model) into
// DIR. `run` measures the workload and prints, as its last stdout line, one
// JSON object {"correct", "attempted", "failed", "metrics"}; the line before
// it ("perfbench-run {...}") records provenance, per-metric sample counts and
// the workload's own numbers that are not in the manifest.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "perfbench/src/common.h"
#include "src/obs/trace_span.h"

#ifndef PERFBENCH_BUILD_FLAGS
#define PERFBENCH_BUILD_FLAGS "unknown"
#endif

namespace perfbench {
namespace {

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--phase") {
      args->phase = value;
    } else if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args->trace = value == "1";
    } else if (key == "--work-dir") {
      args->work_dir = value;
    } else if (key == "--trace-out") {
      args->trace_out = value;
    } else {
      return false;
    }
  }
  const bool known = args->workload == "gen_many" || args->workload == "gen_stream" ||
                     args->workload == "serve" || args->workload == "train";
  return (argc % 2) == 1 && known && !args->work_dir.empty() && args->seconds > 0.0 &&
         (args->phase == "prepare" || args->phase == "run");
}

void PrintResult(const Args& args, const Report& report) {
  const WorkloadShape shape = ShapeFor(args.workload);
  std::string samples = "{";
  std::string metrics = "{";
  for (const auto& [name, metric] : report.metrics) {
    // Per-layer names are "layer.metric"; end-to-end names have no dot. A
    // traced run prints only the former, an untraced one only the latter.
    if (args.trace != (name.find('.') != std::string::npos)) continue;
    if (samples.size() > 1) {
      samples += ",";
      metrics += ",";
    }
    samples += JsonString(name) + ":" + std::to_string(metric.samples);
    metrics += JsonString(name) + ":{\"value\":" + JsonNumber(metric.value) +
               ",\"unit\":" + JsonString(metric.unit) + "}";
  }
  samples += "}";
  metrics += "}";
  // Numbers that only some workloads have; provenance, not results.
  std::string extras = "{";
  for (const auto& [name, metric] : report.extras) {
    if (extras.size() > 1) extras += ",";
    extras += JsonString(name) + ":{\"value\":" + JsonNumber(metric.value) +
              ",\"unit\":" + JsonString(metric.unit) +
              ",\"samples\":" + std::to_string(metric.samples) + "}";
  }
  extras += "}";
  std::string errors = "[";
  for (const std::string& error : report.errors) {
    if (errors.size() > 1) errors += ",";
    errors += JsonString(error);
  }
  errors += "]";
  std::string notes;
  for (const auto& [key, value] : report.provenance) {
    notes.append(",").append(JsonString(key)).append(":").append(value);
  }
  std::printf(
      "perfbench-run {\"workload\":%s,\"seed\":%llu,\"seconds\":%s,\"trace\":%d,"
      "\"nproc\":%zu,\"threads\":%zu,\"hidden\":%zu,\"layers\":%zu,\"build_flags\":%s,"
      "\"samples\":%s,\"workload_metrics\":%s,\"errors\":%s%s}\n",
      JsonString(args.workload).c_str(), static_cast<unsigned long long>(args.seed),
      JsonNumber(args.seconds).c_str(), args.trace ? 1 : 0, HardwareThreads(), shape.threads,
      shape.hidden, shape.layers, JsonString(PERFBENCH_BUILD_FLAGS).c_str(), samples.c_str(),
      extras.c_str(), errors.c_str(), notes.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              report.correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed), metrics.c_str());
  std::fflush(stdout);
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --phase prepare|run --workload "
                 "gen_many|gen_stream|serve|train --seed N --seconds S --trace 0|1 "
                 "--work-dir DIR [--trace-out FILE]\n");
    return 2;
  }
  if (args.phase == "prepare") {
    std::filesystem::create_directories(args.work_dir);
    const Status status = PrepareInputs(args);
    if (!status.ok()) {
      std::fprintf(stderr, "perfbench: prepare: %s\n", status.ToString().c_str());
      return 1;
    }
    return 0;
  }
  Report report;
  // A traced run records spans from set-up on; each workload pauses
  // collection for its untraced phase.
  cloudgen::obs::TraceCollector::Global().SetEnabled(args.trace);
  if (args.workload == "gen_many") {
    RunGenMany(args, &report);
  } else if (args.workload == "gen_stream") {
    RunGenStream(args, &report);
  } else if (args.workload == "serve") {
    RunServe(args, &report);
  } else {
    RunTrain(args, &report);
  }
  for (const std::string& error : report.errors) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", error.c_str());
  }
  PrintResult(args, report);
  return report.correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }

// Kill/resume soak tests for sink-based generation: the sink route must
// byte-match the test-only reference loop (tests/gen_oracle.h) at any thread
// count, streaming checkpoints must carry exactly the reference loop's state
// bytes at every period boundary, graceful cancellation plus --resume-gen
// must reassemble the exact uninterrupted byte string, a gen_write_kill crash
// in the seal→manifest window must be absorbed, and a stale/mismatched
// checkpoint must be rejected loudly.
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/batch_generator.h"
#include "src/core/gen_checkpoint.h"
#include "src/core/workload_model.h"
#include "src/synth/synthetic_cloud.h"
#include "src/trace/trace_sink.h"
#include "src/util/atomic_file.h"
#include "src/util/cancel.h"
#include "src/util/fault.h"
#include "src/util/rng.h"
#include "src/util/thread_pool.h"
#include "tests/gen_oracle.h"

namespace cloudgen {
namespace {

constexpr uint64_t kSeed = 77;
constexpr size_t kCount = 4;

SynthProfile TinyProfile() {
  SynthProfile profile = AzureLikeProfile(0.4);
  profile.train_days = 2;
  profile.dev_days = 1;
  profile.test_days = 1;
  profile.num_flavors = 6;
  profile.num_users = 30;
  return profile;
}

WorkloadModelConfig TinyConfig() {
  WorkloadModelConfig config;
  config.flavor.hidden_dim = 24;
  config.flavor.num_layers = 1;
  config.flavor.seq_len = 48;
  config.flavor.batch_size = 16;
  config.flavor.epochs = 25;
  config.flavor.learning_rate = 5e-3f;
  config.lifetime.hidden_dim = 24;
  config.lifetime.num_layers = 1;
  config.lifetime.seq_len = 48;
  config.lifetime.batch_size = 16;
  config.lifetime.epochs = 25;
  config.lifetime.learning_rate = 5e-3f;
  return config;
}

class GenResumeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const Trace full = SyntheticCloud(TinyProfile(), 505).Generate();
    const Trace train =
        ApplyObservationWindow(full, 0, 2 * kPeriodsPerDay, 2 * kPeriodsPerDay);
    model_ = new WorkloadModel();
    Rng rng(16);
    ASSERT_TRUE(model_->Train(train, TinyConfig(), rng).ok());
  }

  static void TearDownTestSuite() {
    delete model_;
    model_ = nullptr;
  }

  void TearDown() override {
    FaultInjector::Global().Disarm();
    SetGlobalThreads(1);
  }

  static WorkloadModel::GenerateOptions Options() {
    WorkloadModel::GenerateOptions options;
    options.from_period = 0;
    options.to_period = 36;
    return options;
  }

  static std::string Dir(const std::string& name) {
    return testing::TempDir() + "/" + std::to_string(::getpid()) + "." + name;
  }

  // The oracle byte string: the reference loop serialized row by row.
  static std::string ExpectedBytes() {
    Rng rng(kSeed);
    const std::vector<Trace> traces = OracleGenerateMany(*model_, Options(), kCount, rng);
    std::string out;
    for (size_t i = 0; i < traces.size(); ++i) {
      for (const Job& job : traces[i].Jobs()) {
        AppendJobRow(i, job, &out);
      }
    }
    return out;
  }

  // One sink-based run into `dir`. Returns the report; asserts OK status.
  // The run uses one shard per thread of the current global pool.
  static WorkloadModel::GenerateReport RunSinkOnce(
      const std::string& dir, bool resume, const CancelToken* cancel) {
    WorkloadModel::GenerateOptions options = Options();
    options.cancel = cancel;
    SegmentedFileSink::Options sink_options;
    sink_options.dir = dir;
    sink_options.segment_bytes = 256;  // Several seals per trace.
    sink_options.resume = resume;
    SegmentedFileSink sink(sink_options);
    EXPECT_TRUE(sink.Init().ok());
    WorkloadModel::GenerateRun run;
    run.sink = &sink;
    run.checkpoint_path = dir + "/gen.ckpt";
    run.resume = resume;
    run.config_fingerprint = kSeed;
    WorkloadModel::GenerateReport report;
    Rng rng(kSeed);
    EXPECT_TRUE(model_->GenerateMany(options, kCount, rng, run, &report).ok());
    return report;
  }

  static std::string ConcatOrDie(const std::string& dir) {
    std::string bytes;
    EXPECT_TRUE(ConcatSegments(dir, /*require_complete=*/true, &bytes).ok());
    return bytes;
  }

  static WorkloadModel* model_;
};

WorkloadModel* GenResumeTest::model_ = nullptr;

TEST_F(GenResumeTest, SinkRouteMatchesVectorRouteAcrossThreadCounts) {
  const std::string expected = ExpectedBytes();
  ASSERT_FALSE(expected.empty());
  for (const size_t threads : {size_t{1}, size_t{4}}) {
    SetGlobalThreads(threads);
    const std::string dir = Dir("sink_vs_vector_t" + std::to_string(threads));
    const WorkloadModel::GenerateReport report =
        RunSinkOnce(dir, /*resume=*/false, /*cancel=*/nullptr);
    EXPECT_EQ(report.traces, kCount);
    EXPECT_FALSE(report.interrupted);
    EXPECT_EQ(ConcatOrDie(dir), expected) << "threads=" << threads;
  }
}

TEST_F(GenResumeTest, StreamingRouteMatchesGenerate) {
  WorkloadModel::GenerateOptions options = Options();
  Rng rng_oracle(kSeed);
  const Trace oracle = OracleGenerate(*model_, options, rng_oracle);
  std::string expected;
  for (const Job& job : oracle.Jobs()) {
    AppendJobRow(0, job, &expected);
  }

  const std::string dir = Dir("streaming_match");
  SegmentedFileSink::Options sink_options;
  sink_options.dir = dir;
  sink_options.segment_bytes = 256;
  SegmentedFileSink sink(sink_options);
  ASSERT_TRUE(sink.Init().ok());
  WorkloadModel::GenerateRun run;
  run.sink = &sink;
  run.checkpoint_path = dir + "/gen.ckpt";
  run.config_fingerprint = kSeed;
  WorkloadModel::GenerateReport report;
  Rng rng(kSeed);
  ASSERT_TRUE(model_->GenerateStreaming(options, rng, run, &report).ok());
  EXPECT_EQ(report.traces, 1u);
  EXPECT_EQ(report.jobs, oracle.NumJobs());
  EXPECT_EQ(ConcatOrDie(dir), expected);
}

TEST_F(GenResumeTest, PreCancelledRunCheckpointsNothingAndResumeCompletes) {
  const std::string expected = ExpectedBytes();
  const std::string dir = Dir("precancel");
  CancelToken cancel;
  cancel.RequestCancel();
  const WorkloadModel::GenerateReport first =
      RunSinkOnce(dir, /*resume=*/false, &cancel);
  EXPECT_TRUE(first.interrupted);
  EXPECT_EQ(first.traces, 0u);
  const WorkloadModel::GenerateReport second =
      RunSinkOnce(dir, /*resume=*/true, /*cancel=*/nullptr);
  EXPECT_FALSE(second.interrupted);
  EXPECT_TRUE(second.resumed);
  EXPECT_EQ(ConcatOrDie(dir), expected);
}

TEST_F(GenResumeTest, MidRunCancelThenResumeIsByteIdentical) {
  const std::string expected = ExpectedBytes();
  for (const size_t threads : {size_t{1}, size_t{4}}) {
    SetGlobalThreads(threads);
    const std::string dir = Dir("midcancel_t" + std::to_string(threads));
    // Fire the cancel from a side thread mid-run. Wherever the stop lands —
    // including "run already finished" — the resumed output must be the
    // same byte string.
    CancelToken cancel;
    std::thread trigger([&cancel] {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      cancel.RequestCancel();
    });
    const WorkloadModel::GenerateReport first =
        RunSinkOnce(dir, /*resume=*/false, &cancel);
    trigger.join();
    if (first.interrupted) {
      const WorkloadModel::GenerateReport second =
          RunSinkOnce(dir, /*resume=*/true, /*cancel=*/nullptr);
      EXPECT_FALSE(second.interrupted);
      // Every trace is flushed exactly once across the two runs.
      EXPECT_EQ(first.traces + second.traces, kCount);
    }
    EXPECT_EQ(ConcatOrDie(dir), expected) << "threads=" << threads;
  }
}

TEST_F(GenResumeTest, StreamingDeadlineInterruptsThenResumesByteIdentically) {
  WorkloadModel::GenerateOptions options = Options();
  options.to_period = kPeriodsPerDay / 2;  // Long enough to outlive the deadline.
  Rng rng_oracle(kSeed);
  const Trace oracle = OracleGenerate(*model_, options, rng_oracle);
  std::string expected;
  for (const Job& job : oracle.Jobs()) {
    AppendJobRow(0, job, &expected);
  }

  const std::string dir = Dir("streaming_deadline");
  auto run_once = [&](bool resume, const CancelToken* cancel) {
    WorkloadModel::GenerateOptions attempt = options;
    attempt.cancel = cancel;
    SegmentedFileSink::Options sink_options;
    sink_options.dir = dir;
    sink_options.segment_bytes = 256;
    sink_options.resume = resume;
    SegmentedFileSink sink(sink_options);
    EXPECT_TRUE(sink.Init().ok());
    WorkloadModel::GenerateRun run;
    run.sink = &sink;
    run.checkpoint_path = dir + "/gen.ckpt";
    run.resume = resume;
    run.config_fingerprint = kSeed;
    WorkloadModel::GenerateReport report;
    Rng rng(kSeed);
    EXPECT_TRUE(model_->GenerateStreaming(attempt, rng, run, &report).ok());
    return report;
  };

  CancelToken deadline;
  deadline.SetDeadline(0.01);
  WorkloadModel::GenerateReport report = run_once(/*resume=*/false, &deadline);
  // A few deadline-limited resumes exercise the checkpointed engine/RNG
  // state blob mid-trace; under heavy machine load an attempt may make zero
  // progress, so completion is guaranteed by a final unbounded resume
  // rather than by looping on deadlines.
  for (int attempt = 0; attempt < 5 && report.interrupted; ++attempt) {
    CancelToken next_deadline;
    next_deadline.SetDeadline(0.01);
    report = run_once(/*resume=*/true, &next_deadline);
  }
  if (report.interrupted) {
    report = run_once(/*resume=*/true, /*cancel=*/nullptr);
  }
  EXPECT_FALSE(report.interrupted);
  EXPECT_EQ(ConcatOrDie(dir), expected);
}

// The shard count (one per pool thread) is excluded from the checkpoint
// fingerprint, like batch_window and --threads, so a run checkpointed at one
// shard count must resume — accepted, not FAILED_PRECONDITION — at any
// other, byte-identically.
TEST_F(GenResumeTest, CheckpointTransfersAcrossShardCounts) {
  const std::string expected = ExpectedBytes();

  // Deterministic direction first: a pre-cancelled single-shard run leaves a
  // trace-0 checkpoint that a 4-shard resume must accept and complete.
  {
    const std::string dir = Dir("cross_shard_pre");
    CancelToken cancel;
    cancel.RequestCancel();
    SetGlobalThreads(1);
    const WorkloadModel::GenerateReport first =
        RunSinkOnce(dir, /*resume=*/false, &cancel);
    EXPECT_TRUE(first.interrupted);
    SetGlobalThreads(4);
    const WorkloadModel::GenerateReport second =
        RunSinkOnce(dir, /*resume=*/true, /*cancel=*/nullptr);
    EXPECT_TRUE(second.resumed);
    EXPECT_FALSE(second.interrupted);
    EXPECT_EQ(ConcatOrDie(dir), expected);
  }

  // Mid-run direction: interrupt a sharded run wherever the cancel lands and
  // finish it single-shard.
  {
    const std::string dir = Dir("cross_shard_mid");
    SetGlobalThreads(4);
    CancelToken cancel;
    std::thread trigger([&cancel] {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      cancel.RequestCancel();
    });
    const WorkloadModel::GenerateReport first =
        RunSinkOnce(dir, /*resume=*/false, &cancel);
    trigger.join();
    SetGlobalThreads(1);
    if (first.interrupted) {
      const WorkloadModel::GenerateReport second =
          RunSinkOnce(dir, /*resume=*/true, /*cancel=*/nullptr);
      EXPECT_FALSE(second.interrupted);
      EXPECT_EQ(first.traces + second.traces, kCount);
    }
    EXPECT_EQ(ConcatOrDie(dir), expected);
  }
}

// Sharded analog of MidRunCancelThenResumeIsByteIdentical: repeated mid-run
// stops (the in-process SIGTERM path — the CLI's handler trips this same
// CancelToken) with four windows in flight, resumed with two each round.
TEST_F(GenResumeTest, ShardedMidRunCancelThenResumeIsByteIdentical) {
  const std::string expected = ExpectedBytes();
  for (int round = 0; round < 3; ++round) {
    const std::string dir = Dir("sharded_midcancel_r" + std::to_string(round));
    SetGlobalThreads(4);
    CancelToken cancel;
    std::thread trigger([&cancel, round] {
      std::this_thread::sleep_for(std::chrono::milliseconds(2 * round + 1));
      cancel.RequestCancel();
    });
    const WorkloadModel::GenerateReport first =
        RunSinkOnce(dir, /*resume=*/false, &cancel);
    trigger.join();
    if (first.interrupted) {
      SetGlobalThreads(2);
      const WorkloadModel::GenerateReport second =
          RunSinkOnce(dir, /*resume=*/true, /*cancel=*/nullptr);
      EXPECT_FALSE(second.interrupted);
      EXPECT_EQ(first.traces + second.traces, kCount);
    }
    EXPECT_EQ(ConcatOrDie(dir), expected) << "round=" << round;
  }
}

// Seals every non-empty period and, at each commit point, records the
// checkpoint the previous seal left on disk — so a streaming run exposes
// every state blob it writes, keyed by the period it resumes at.
class CheckpointTapSink : public TraceSink {
 public:
  explicit CheckpointTapSink(std::string checkpoint_path)
      : checkpoint_path_(std::move(checkpoint_path)) {}

  Status BeginTrace(size_t) override { return OkStatus(); }
  Status Append(const Job&) override {
    ++buffered_;
    return OkStatus();
  }
  Status EndTrace() override { return OkStatus(); }
  Status CommitPoint(bool, bool* sealed) override {
    Tap();
    *sealed = buffered_ > 0;
    buffered_ = 0;
    return OkStatus();
  }
  Status Finish() override { return OkStatus(); }

  // next_period -> state blob.
  const std::map<int64_t, std::string>& Blobs() const { return blobs_; }

 private:
  void Tap() {
    GenCursor cursor;
    if (FileExists(checkpoint_path_) &&
        LoadGenCheckpoint(checkpoint_path_, &cursor).ok() &&
        !cursor.state_blob.empty()) {
      blobs_[cursor.next_period] = cursor.state_blob;
    }
  }

  std::string checkpoint_path_;
  size_t buffered_ = 0;
  std::map<int64_t, std::string> blobs_;
};

// Checkpoint-format compatibility: the streaming state blob is the DOH day,
// then next_user + flavor generator + lifetime generator, then the Rng —
// the layout streaming checkpoints have always had. At every period boundary
// the machine's state must equal the reference loop's bytes, and every blob a
// real streaming run checkpoints must too, so checkpoints written by older
// builds keep resuming.
TEST_F(GenResumeTest, StreamingStateBlobMatchesOracleAtEveryPeriodBoundary) {
  const WorkloadModel::GenerateOptions options = Options();
  Rng oracle_rng(kSeed);
  const int doh_day = model_->ArrivalModel().SampleDohDay(oracle_rng, options.doh_mode);
  OraclePeriodEngine oracle(*model_, model_->ArrivalModel(), options, doh_day);
  Rng machine_rng(kSeed);
  ASSERT_EQ(model_->ArrivalModel().SampleDohDay(machine_rng, options.doh_mode), doh_day);
  TraceStreamMachine machine(*model_, model_->ArrivalModel(), options, &machine_rng,
                             doh_day);

  const auto blob = [doh_day](const auto& engine, const Rng& rng) {
    std::ostringstream out;
    const int32_t day = doh_day;
    out.write(reinterpret_cast<const char*>(&day), sizeof(day));
    engine.SaveState(out);
    rng.SaveState(out);
    return std::move(out).str();
  };

  std::map<int64_t, std::string> oracle_blobs;
  size_t jobs = 0;
  for (int64_t period = options.from_period; period < options.to_period; ++period) {
    const std::string expected = blob(oracle, oracle_rng);
    ASSERT_EQ(blob(machine, machine_rng), expected) << "before period " << period;
    oracle_blobs[period] = expected;
    std::vector<Job> oracle_jobs;
    oracle.RunPeriod(
        period, oracle_rng, [&oracle_jobs](const Job& job) { oracle_jobs.push_back(job); },
        /*allow_midperiod_cancel=*/false);
    machine.RunSingleUntil(period + 1);
    ASSERT_EQ(machine.Jobs().size(), oracle_jobs.size()) << "period " << period;
    for (size_t j = 0; j < oracle_jobs.size(); ++j) {
      EXPECT_EQ(machine.Jobs()[j].end_period, oracle_jobs[j].end_period);
      EXPECT_EQ(machine.Jobs()[j].flavor, oracle_jobs[j].flavor);
      EXPECT_EQ(machine.Jobs()[j].user, oracle_jobs[j].user);
    }
    jobs += oracle_jobs.size();
    machine.ClearJobs();
  }
  ASSERT_GT(jobs, 0u);
  EXPECT_EQ(machine.NextPeriod(), options.to_period);
  oracle_blobs[options.to_period] = blob(oracle, oracle_rng);
  EXPECT_EQ(blob(machine, machine_rng), oracle_blobs[options.to_period]);

  // The blobs a streaming run actually checkpoints.
  const std::string dir = Dir("blob_tap");
  ASSERT_TRUE(::mkdir(dir.c_str(), 0777) == 0 || errno == EEXIST);
  const std::string checkpoint = dir + "/gen.ckpt";
  ::unlink(checkpoint.c_str());
  CheckpointTapSink sink(checkpoint);
  WorkloadModel::GenerateRun run;
  run.sink = &sink;
  run.checkpoint_path = checkpoint;
  run.config_fingerprint = kSeed;
  WorkloadModel::GenerateReport report;
  Rng rng(kSeed);
  ASSERT_TRUE(model_->GenerateStreaming(options, rng, run, &report).ok());
  EXPECT_EQ(report.jobs, jobs);
  ASSERT_GT(sink.Blobs().size(), 4u);
  for (const auto& [next_period, state] : sink.Blobs()) {
    ASSERT_TRUE(oracle_blobs.count(next_period) > 0) << next_period;
    EXPECT_EQ(state, oracle_blobs[next_period]) << "checkpoint at " << next_period;
  }
}

TEST_F(GenResumeTest, KillBetweenSealAndManifestIsAbsorbedOnResume) {
  const std::string expected = ExpectedBytes();
  const std::string dir = Dir("write_kill");
  SetGlobalThreads(1);  // Keep the death-test fork single-threaded.
  EXPECT_EXIT(
      {
        // Armed only in the child: the first sealed segment _Exits the
        // process after the segment file lands but before the manifest and
        // checkpoint record it — the worst-ordered crash.
        ASSERT_TRUE(
            FaultInjector::Global().Configure("gen_write_kill:1.0").ok());
        RunSinkOnce(dir, /*resume=*/false, /*cancel=*/nullptr);
      },
      ::testing::ExitedWithCode(kFaultKillExitCode), "");
  // The child left an orphan segment file and an empty manifest with no
  // checkpoint. Resume must regenerate everything, identically.
  const WorkloadModel::GenerateReport report =
      RunSinkOnce(dir, /*resume=*/true, /*cancel=*/nullptr);
  EXPECT_FALSE(report.interrupted);
  EXPECT_EQ(report.traces, kCount);
  EXPECT_EQ(ConcatOrDie(dir), expected);
}

TEST_F(GenResumeTest, ResumeWithMismatchedFingerprintIsRejected) {
  const std::string dir = Dir("fingerprint");
  CancelToken cancel;
  cancel.RequestCancel();
  const WorkloadModel::GenerateReport first =
      RunSinkOnce(dir, /*resume=*/false, &cancel);
  EXPECT_TRUE(first.interrupted);

  // Same directory, different seed folded into the fingerprint: the resume
  // must fail loudly instead of splicing two RNG streams into one output.
  SegmentedFileSink::Options sink_options;
  sink_options.dir = dir;
  sink_options.segment_bytes = 256;
  sink_options.resume = true;
  SegmentedFileSink sink(sink_options);
  ASSERT_TRUE(sink.Init().ok());
  WorkloadModel::GenerateRun run;
  run.sink = &sink;
  run.checkpoint_path = dir + "/gen.ckpt";
  run.resume = true;
  run.config_fingerprint = kSeed + 1;
  WorkloadModel::GenerateReport report;
  Rng rng(kSeed + 1);
  const Status status = model_->GenerateMany(Options(), kCount, rng, run, &report);
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace cloudgen

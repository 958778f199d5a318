// Tests for the ThreadPool / ParallelFor primitive: full coverage of the
// index range, empty ranges, exception propagation, nested-submit safety
// (inner ParallelFor from a pool worker must run inline, not deadlock), the
// help-drain context restore, generation's one-task-per-shard invariant, and
// the global pool configuration knobs.
#include "src/util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/workload_model.h"
#include "src/obs/metrics.h"
#include "src/synth/synthetic_cloud.h"
#include "src/trace/trace.h"
#include "src/util/rng.h"

namespace cloudgen {
namespace {

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr size_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  for (auto& h : hits) {
    h.store(0);
  }
  pool.ParallelFor(0, kN, [&](size_t i) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, ParallelForNonZeroBegin) {
  ThreadPool pool(3);
  std::atomic<size_t> sum{0};
  pool.ParallelFor(10, 20, [&](size_t i) { sum.fetch_add(i); });
  EXPECT_EQ(sum.load(), 145u);  // 10 + 11 + ... + 19.
}

TEST(ThreadPool, EmptyRangeNeverInvokesBody) {
  ThreadPool pool(2);
  std::atomic<int> calls{0};
  pool.ParallelFor(5, 5, [&](size_t) { calls.fetch_add(1); });
  pool.ParallelFor(7, 3, [&](size_t) { calls.fetch_add(1); });  // begin > end.
  EXPECT_EQ(calls.load(), 0);
}

TEST(ThreadPool, SingleThreadPoolRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.NumThreads(), 0u);  // Inline-only: no worker threads spawned.
  std::vector<size_t> order;
  pool.ParallelFor(0, 8, [&](size_t i) { order.push_back(i); });
  ASSERT_EQ(order.size(), 8u);
  for (size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(order[i], i);  // Inline execution is sequential and ordered.
  }
}

TEST(ThreadPool, ExceptionPropagatesToCaller) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.ParallelFor(0, 100,
                                [&](size_t i) {
                                  if (i == 37) {
                                    throw std::runtime_error("boom");
                                  }
                                }),
               std::runtime_error);
  // The pool must remain usable after an exception.
  std::atomic<int> calls{0};
  pool.ParallelFor(0, 10, [&](size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 10);
}

TEST(ThreadPool, NestedParallelForRunsInlineWithoutDeadlock) {
  ThreadPool pool(2);  // Fewer workers than outer tasks forces queue pressure.
  constexpr size_t kOuter = 8;
  constexpr size_t kInner = 16;
  std::atomic<size_t> total{0};
  pool.ParallelFor(0, kOuter, [&](size_t) {
    // From inside a pool task, a nested submit must not wait on pool workers
    // (they may all be busy running outer tasks) — it runs inline.
    pool.ParallelFor(0, kInner, [&](size_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), kOuter * kInner);
}

// The submitter's help-drain loop runs stolen tasks as pool tasks, so their
// nested sections run inline — and then restores the submitter's own
// context. A top-level caller that drained part of one section must still
// fan the next one out over the pool, not run it inline.
TEST(ThreadPool, NestedContextRestoredAfterBoundedSection) {
  ThreadPool pool(4);
  obs::Counter& tasks_run = obs::Registry::Global().GetCounter("pool.tasks_run");
  std::atomic<size_t> total{0};
  std::vector<std::function<void()>> outer;
  for (size_t o = 0; o < 4; ++o) {
    outer.emplace_back([&] {
      // Nested inside a pool task (or a stolen one): sequential inline
      // execution in index order.
      std::vector<size_t> order;
      pool.ParallelFor(0, 8, [&](size_t i) { order.push_back(i); });
      ASSERT_EQ(order.size(), 8u);
      for (size_t i = 0; i < 8; ++i) {
        EXPECT_EQ(order[i], i);
      }
      total.fetch_add(8);
    });
  }
  for (int round = 0; round < 3; ++round) {
    const uint64_t before = tasks_run.Value();
    pool.RunAll(outer);
    // Every outer task went through the queue (workers or the caller's
    // help-drain); none ran inline because of state leaked by the previous
    // round's drain.
    EXPECT_EQ(tasks_run.Value() - before, outer.size()) << "round " << round;
  }
  EXPECT_EQ(total.load(), 3u * 4u * 8u);
}

// Generation's shard invariant: GenerateMany runs one shard task per pool
// thread (min(threads, traces)) and each shard's GEMMs run inline on its
// thread, so a run adds exactly that many pool tasks and no nested ones.
TEST(ThreadPool, GenerateManyRunsOneTaskPerShardAndNoNestedTasks) {
  SynthProfile profile = AzureLikeProfile(0.3);
  profile.train_days = 2;
  profile.dev_days = 1;
  profile.test_days = 1;
  profile.num_flavors = 4;
  profile.num_users = 12;
  const Trace full = SyntheticCloud(profile, 321).Generate();
  const Trace train =
      ApplyObservationWindow(full, 0, 2 * kPeriodsPerDay, 2 * kPeriodsPerDay);
  WorkloadModelConfig config;
  config.flavor.hidden_dim = 8;
  config.flavor.num_layers = 1;
  config.flavor.seq_len = 16;
  config.flavor.batch_size = 8;
  config.flavor.epochs = 1;
  config.lifetime.hidden_dim = 8;
  config.lifetime.num_layers = 1;
  config.lifetime.seq_len = 16;
  config.lifetime.batch_size = 8;
  config.lifetime.epochs = 1;
  SetGlobalThreads(1);
  WorkloadModel model;
  Rng train_rng(42);
  ASSERT_TRUE(model.Train(train, config, train_rng).ok());

  WorkloadModel::GenerateOptions options;
  options.from_period = 3 * kPeriodsPerDay;
  options.to_period = 3 * kPeriodsPerDay + 12;
  options.batch_window = 4;  // Several traces per window: multi-row GEMMs.
  obs::Counter& tasks_run = obs::Registry::Global().GetCounter("pool.tasks_run");
  SetGlobalThreads(4);
  for (const size_t count : {size_t{8}, size_t{13}, size_t{3}}) {
    Rng rng(7);
    const uint64_t before = tasks_run.Value();
    const std::vector<Trace> traces = model.GenerateMany(options, count, rng);
    EXPECT_EQ(traces.size(), count);
    EXPECT_EQ(tasks_run.Value() - before, std::min<size_t>(4, count))
        << "count " << count;
  }
  SetGlobalThreads(1);
}

TEST(ThreadPool, RunAllExecutesEveryTask) {
  ThreadPool pool(3);
  std::atomic<int> calls{0};
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < 20; ++i) {
    tasks.emplace_back([&] { calls.fetch_add(1); });
  }
  pool.RunAll(tasks);
  EXPECT_EQ(calls.load(), 20);
}

TEST(ThreadPool, GlobalPoolResizes) {
  SetGlobalThreads(3);
  EXPECT_EQ(GlobalParallelism(), 3u);
  std::atomic<int> calls{0};
  GlobalThreadPool().ParallelFor(0, 12, [&](size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 12);
  SetGlobalThreads(1);
  EXPECT_EQ(GlobalParallelism(), 1u);
}

}  // namespace
}  // namespace cloudgen

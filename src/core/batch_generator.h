// The generation loop and the batched multi-stream engine around it.
//
// TraceStreamMachine is the one per-trace period loop: every entry point
// (Generate, GenerateWithArrivalModel, GenerateStreaming, GenerateMany,
// serve's row regeneration) runs it. It is a resumable state machine so the
// LSTM steps can run one at a time (the single-step route) or be gathered
// across many traces into one batch.
//
// The single-stream generator spends almost all of its time in batch-1 GEMVs:
// one trace advances one token at a time, so every LSTM layer multiplies a
// (1, H) row against (·, 4H) weights. The engine steps many independent
// traces in lockstep instead: each tick it gathers the active streams' step
// inputs and per-layer h/c rows into one matrix, runs a single blocked GEMM
// per LSTM layer (SequenceNetwork::StepBatch), and scatters the results back.
// Because every GEMM/GEMV kernel computes each output element as one fixed
// p-ascending reduction, row r of a batched step is bitwise-identical to a
// batch-1 step of that stream alone — and each stream samples only from its
// own Rng::Stream — so generated traces are byte-identical for ANY window
// size and thread count.
//
// Two layers:
//  * TraceStreamMachine — one trace as a resumable state machine. Advance()
//    runs everything that is not an LSTM step (arrival Poisson draws,
//    duration sampling, job emission, period/phase transitions) until the
//    machine either needs a flavor-token or lifetime-job LSTM step, or the
//    trace is complete. The needed step can be run whole (single-step
//    route) or split into gather/scatter halves for batching.
//  * BatchTraceEngine — the tick loop: partitions active machines by which
//    network they need (flavor vs lifetime), steps each group as one batch,
//    retires finished traces, and refills the window from the remaining
//    indices. Ragged batches are handled by compaction: done machines leave
//    the active set, so the batch shrinks to exactly the live streams.
#ifndef SRC_CORE_BATCH_GENERATOR_H_
#define SRC_CORE_BATCH_GENERATOR_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <vector>

#include "src/core/workload_model.h"
#include "src/util/rng.h"

namespace cloudgen {

// One trace being generated: the paper's three stages per 5-minute period
// (Poisson batch-arrival draw, flavor-LSTM token loop until the sampled
// number of EOBs, one lifetime-LSTM hazard step per job), decomposed so the
// LSTM steps can be executed externally.
class TraceStreamMachine {
 public:
  enum class Need { kFlavorStep, kLifetimeStep, kDone };

  // Engine route: trace `index` of the family anchored at `base`. Draws only
  // from Rng::Stream(base, index), whose first draw samples the DOH day.
  TraceStreamMachine(const WorkloadModel& model,
                     const WorkloadModel::GenerateOptions& options, uint64_t base,
                     size_t index);
  // Caller-driven route (Generate, GenerateWithArrivalModel,
  // GenerateStreaming): draws from `*rng`, advancing the caller's generator
  // exactly as the period loop always has. Stage-1 rates come from
  // `arrivals` (the model's own or an ablation override); the LSTM stages are
  // conditioned on `doh_day`, which the caller sampled or restored from a
  // checkpoint. `*rng` must outlive the machine.
  TraceStreamMachine(const WorkloadModel& model, const BatchArrivalModel& arrivals,
                     const WorkloadModel::GenerateOptions& options, Rng* rng,
                     int doh_day);

  TraceStreamMachine(const TraceStreamMachine&) = delete;
  TraceStreamMachine& operator=(const TraceStreamMachine&) = delete;

  Need need() const { return need_; }
  size_t index() const { return index_; }

  // Runs all non-NN work until the next LSTM step is needed (or the trace is
  // done). Must be called once after construction, and is re-entered
  // automatically by FinishNeededStep/RunNeededStepSingle.
  void Advance();

  // Split execution of the needed step: BeginNeededStep encodes the step
  // input into `x_row` (a gathered batch row); after the external batched
  // LSTM step scatters h/c and logits back through StepState()/StepLogits(),
  // FinishNeededStep samples, applies the result, and advances to the next
  // needed step.
  void BeginNeededStep(float* x_row);
  void FinishNeededStep();
  // Runs the needed step entirely on the single-stream fast path — used when
  // a tick group has exactly one machine, where a 1-row batch would be the
  // same math with extra gather/scatter.
  void RunNeededStepSingle();

  // Single-step route: generates every period before `until` (clamped to
  // the horizon) with RunNeededStepSingle, then pauses at that period
  // boundary, before its Poisson draw. Generate runs to the horizon in one
  // call; streaming runs one period per call and checkpoints in between.
  // options.cancel is honoured as everywhere else (period start and between
  // tokens); a caller that must stop only at period boundaries passes
  // options without a token and polls its own between calls.
  void RunSingleUntil(int64_t until);
  // The next period to generate. Past the horizon once the trace is done.
  int64_t NextPeriod() const { return period_; }

  // Period-boundary state, valid between RunSingleUntil calls. SaveState
  // writes next_user, then the flavor generator, then the lifetime
  // generator: the layout GenCursor streaming checkpoints carry. The DOH day
  // and the Rng travel beside it in the blob (the caller owns both), and the
  // period travels in GenCursor::next_period, so LoadState takes it back.
  void SaveState(std::ostream& out) const;
  void LoadState(std::istream& in, int64_t next_period);

  // Gather/scatter access for the needed step's generator.
  LstmState* StepState();
  Matrix* StepLogits();

  // Jobs generated so far (since the last ClearJobs). Streaming hands them to
  // its sink after every period and clears them, so a month-scale trace is
  // never held in memory whole.
  const std::vector<Job>& Jobs() const { return trace_.Jobs(); }
  void ClearJobs() { trace_.MutableJobs().clear(); }
  Trace&& TakeTrace() { return std::move(trace_); }

 private:
  void EmitJob(size_t bin);

  const WorkloadModel::GenerateOptions& options_;
  const BatchArrivalModel& arrivals_;
  const LifetimeBinning& binning_;
  size_t index_;
  // The engine route owns its stream; the caller-driven route points rng_
  // at the caller's generator and leaves owned_rng_ unused.
  Rng owned_rng_;
  Rng* rng_;
  Trace trace_;
  int doh_day_;
  FlavorLstmModel::Generator flavor_gen_;
  LifetimeLstmModel::Generator lifetime_gen_;

  enum class Phase { kPeriodStart, kFlavor, kLifetime };
  Phase phase_ = Phase::kPeriodStart;
  Need need_ = Need::kDone;
  int64_t period_;
  // Advance stops at this period boundary (the horizon unless
  // RunSingleUntil pauses earlier).
  int64_t end_period_;
  std::vector<std::vector<int32_t>> batches_;
  size_t batch_idx_ = 0;
  size_t job_idx_ = 0;
  int64_t user_ = 0;
  int64_t next_user_ = 0;
};

class BatchTraceEngine {
 public:
  BatchTraceEngine(const WorkloadModel& model,
                   const WorkloadModel::GenerateOptions& options, uint64_t base);

  // Generates traces [first, first + count) with at most `window` streams in
  // flight. Completed traces are handed to `emit` in completion order (NOT
  // index order — the caller reorders); `emit` returning false stops the
  // engine early and abandons the remaining partial traces.
  void Run(size_t first, size_t count, size_t window,
           const std::function<bool(size_t, Trace&&)>& emit);

  // Strided variant: generates the indices {first, first + stride, ...} that
  // fall in [first, end). This is the shard view used by the sharded
  // scheduler — shard s of S owns every S-th index starting at first + s, so
  // the union over shards is exactly [first, end) and each shard's reorder
  // backlog stays small. Run(f, c, w, emit) == RunStrided(f, 1, f + c, w, emit).
  void RunStrided(size_t first, size_t stride, size_t end, size_t window,
                  const std::function<bool(size_t, Trace&&)>& emit);

  // Work tallies for this engine instance, cumulative across Run calls. A
  // tick is one lockstep iteration (<= 2 batched network steps); rows is the
  // total machine-steps executed, so rows / (ticks * window) is the mean
  // window occupancy.
  uint64_t TicksRun() const { return ticks_; }
  uint64_t RowsStepped() const { return rows_; }

 private:
  void StepGroup(const SequenceNetwork& net,
                 const std::vector<TraceStreamMachine*>& group,
                 BatchStepWorkspace* ws);

  const WorkloadModel& model_;
  const WorkloadModel::GenerateOptions& options_;
  uint64_t base_;
  // One workspace per network; capacity persists across ticks, so the steady
  // state performs no per-token heap allocation (see BatchStepWorkspace).
  BatchStepWorkspace flavor_ws_;
  BatchStepWorkspace lifetime_ws_;
  uint64_t ticks_ = 0;
  uint64_t rows_ = 0;
};

// Sharded tick scheduler: partitions [first, first + count) round-robin over
// `shards` independent BatchTraceEngines (shard s owns indices first + s,
// first + s + shards, ...) and runs one engine per ThreadPool task, so up to
// `shards` batch windows are in flight at once. Each shard owns its own
// machines, workspaces, and per-stream Rng::Streams; its GEMMs run inline on
// its pool thread like every nested parallel section. Completed traces from
// all shards are funneled through `emit` under one mutex, still in per-shard
// completion order but interleaved across shards — the caller's reorder
// buffer restores index order, and because every trace is a pure function of
// (base, index) the merged output is byte-identical to a single engine at
// any shard count. `emit` returning false stops every shard early. Records
// the `gen.shard.{ticks,rows}` counters and `gen.shard.occupancy` gauge.
// `shards <= 1` degenerates to one un-sharded engine on the calling thread;
// `window` 0 is clamped to 1. WorkloadModel runs one shard per pool thread,
// clamped to the population.
void RunShardedBatchEngines(const WorkloadModel& model,
                            const WorkloadModel::GenerateOptions& options,
                            uint64_t base, size_t first, size_t count,
                            size_t window, size_t shards,
                            const std::function<bool(size_t, Trace&&)>& emit);

}  // namespace cloudgen

#endif  // SRC_CORE_BATCH_GENERATOR_H_

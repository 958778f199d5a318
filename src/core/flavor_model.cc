#include "src/core/flavor_model.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <sstream>

#include "src/core/gen_checkpoint.h"
#include "src/core/trainer.h"
#include "src/nn/activations.h"
#include "src/nn/losses.h"
#include "src/obs/metrics.h"
#include "src/obs/trace_span.h"
#include "src/util/check.h"
#include "src/util/fault.h"
#include "src/util/log.h"
#include "src/util/rng.h"
#include "src/util/sealed_file.h"
#include "src/util/strings.h"
#include "src/util/timer.h"

namespace cloudgen {

FlavorStream BuildFlavorStream(const Trace& trace, int history_days) {
  FlavorStream stream;
  const std::vector<PeriodBatches> periods = BuildBatches(trace);
  const int64_t start_day = trace.WindowStart() / kPeriodsPerDay;
  for (const PeriodBatches& period : periods) {
    const PeriodCalendar cal = DecomposePeriod(period.period);
    const int doh =
        std::clamp(static_cast<int>(cal.day_index - start_day) + 1, 1, history_days);
    for (const Batch& batch : period.batches) {
      for (size_t idx : batch.job_indices) {
        stream.tokens.push_back(trace.Jobs()[idx].flavor);
        stream.periods.push_back(period.period);
        stream.doh_days.push_back(doh);
      }
      stream.tokens.push_back(static_cast<int32_t>(trace.NumFlavors()));  // EOB.
      stream.periods.push_back(period.period);
      stream.doh_days.push_back(doh);
    }
  }
  return stream;
}

size_t ArgmaxExcluding(const std::vector<double>& weights, size_t exclude) {
  CG_CHECK(weights.size() >= 2 || exclude >= weights.size());
  size_t best = exclude == 0 ? 1 : 0;
  for (size_t c = best + 1; c < weights.size(); ++c) {
    if (c != exclude && weights[c] > weights[best]) {
      best = c;
    }
  }
  return best;
}

FlavorStream FlavorLstmModel::BuildStream(const Trace& trace) const {
  CG_CHECK(encoder_ != nullptr);
  return BuildFlavorStream(trace, encoder_->Temporal().HistoryDays());
}

const FlavorVocab& FlavorLstmModel::Vocab() const {
  CG_CHECK(encoder_ != nullptr);
  return encoder_->Vocab();
}

Status FlavorLstmModel::Train(const Trace& train, int history_days,
                              const FlavorModelConfig& config, Rng& rng) {
  config_ = config;
  encoder_ = std::make_unique<FlavorInputEncoder>(FlavorVocab(train.NumFlavors()),
                                                  TemporalFeatureEncoder(history_days));
  SequenceNetworkConfig net_config;
  net_config.input_dim = encoder_->Dim();
  net_config.hidden_dim = config.hidden_dim;
  net_config.num_layers = config.num_layers;
  net_config.output_dim = encoder_->Vocab().NumTokens();
  network_ = SequenceNetwork(net_config, rng);

  const FlavorStream stream = BuildFlavorStream(train, history_days);
  if (stream.tokens.empty()) {
    return InvalidArgumentError("flavor training stream is empty");
  }

  AdamConfig adam_config;
  adam_config.learning_rate = config.learning_rate;
  adam_config.weight_decay = config.weight_decay;
  adam_config.clip_norm = config.clip_norm;
  Adam optimizer(network_.Params(), network_.Grads(), adam_config);

  const SequenceBatching batching(stream.tokens.size(),
                                  {config.seq_len, config.batch_size});
  const size_t eob = encoder_->Vocab().EobToken();
  const size_t dim = encoder_->Dim();

  std::vector<Matrix> inputs(batching.SeqLen());
  std::vector<std::vector<int32_t>> targets(batching.SeqLen());
  DataParallelBptt bptt(&network_, batching.BatchSize());
  const auto shard_loss = [&](size_t r0, size_t r1, const std::vector<Matrix>& logits,
                              std::vector<Matrix>* dlogits) {
    // The loss normalizes by its own (shard-local) counted-row total, so each
    // step is rescaled by counted_shard/counted_all to land on the exact
    // full-minibatch normalization serial training uses. The callback runs
    // concurrently across shards but only touches shard-local buffers.
    const float inv_steps = 1.0f / static_cast<float>(batching.SeqLen());
    double sum = 0.0;
    std::vector<int32_t> shard_targets;
    for (size_t t = 0; t < batching.SeqLen(); ++t) {
      size_t counted_all = 0;
      size_t counted_shard = 0;
      for (size_t b = 0; b < batching.BatchSize(); ++b) {
        if (targets[t][b] == kIgnoreTarget) {
          continue;
        }
        ++counted_all;
        counted_shard += static_cast<size_t>(b >= r0 && b < r1);
      }
      shard_targets.assign(targets[t].begin() + static_cast<ptrdiff_t>(r0),
                           targets[t].begin() + static_cast<ptrdiff_t>(r1));
      const double mean = SoftmaxCrossEntropy(logits[t], shard_targets, &(*dlogits)[t]);
      const float f = counted_all == 0
                          ? 0.0f
                          : static_cast<float>(counted_shard) /
                                static_cast<float>(counted_all) * inv_steps;
      (*dlogits)[t].Scale(f);
      sum += mean * static_cast<double>(f);
    }
    return sum;
  };

  ResilientTrainLoop loop(kCheckpointStageFlavor, config.recovery, config.learning_rate,
                          config.lr_decay, &network_, &optimizer, &rng);
  // Per-epoch telemetry (observe-only: never feeds back into training).
  obs::Registry& registry = obs::Registry::Global();
  obs::Series& loss_series = registry.GetSeries("train.flavor.loss");
  obs::Series& grad_series = registry.GetSeries("train.flavor.grad_norm");
  obs::Series& lr_series = registry.GetSeries("train.flavor.lr");
  obs::Series& rate_series = registry.GetSeries("train.flavor.rows_per_sec");
  obs::Counter& minibatch_counter = registry.GetCounter("train.flavor.minibatches");
  obs::Histogram& epoch_hist = registry.GetHistogram("time.train_epoch_ms");

  CG_SPAN("train.flavor");
  Timer timer;
  size_t epoch = loop.Begin();
  while (epoch < config.epochs) {
    CG_SPAN("train.flavor_epoch");
    ScopedTimer epoch_timer(&epoch_hist);
    optimizer.SetLearningRate(loop.LearningRate());
    double epoch_loss = 0.0;
    size_t epoch_minibatches = 0;
    bool diverged = false;
    for (size_t mb : batching.EpochOrder(rng)) {
      // Assemble the minibatch.
      for (size_t t = 0; t < batching.SeqLen(); ++t) {
        inputs[t].Resize(batching.BatchSize(), dim);
        targets[t].assign(batching.BatchSize(), kIgnoreTarget);
        for (size_t b = 0; b < batching.BatchSize(); ++b) {
          const size_t step = batching.StepIndex(mb, t, b);
          const size_t prev = step == 0 ? eob : static_cast<size_t>(stream.tokens[step - 1]);
          encoder_->EncodeInto(prev, stream.periods[step], stream.doh_days[step],
                               inputs[t].Row(b));
          targets[t][b] = stream.tokens[step];
        }
      }
      const double loss = bptt.Run(inputs, shard_loss);
      MaybeInjectGradientFault(&network_);
      optimizer.Step();
      if (!std::isfinite(loss) || !std::isfinite(optimizer.LastGradNorm())) {
        // The update that just happened is contaminated; bail out of the
        // epoch so the watchdog can roll the whole state back.
        diverged = true;
        break;
      }
      epoch_loss += loss;
      ++epoch_minibatches;
      minibatch_counter.Add(1);
    }
    const double mean_loss = epoch_loss / std::max<size_t>(1, epoch_minibatches);
    const float epoch_lr = loop.LearningRate();
    switch (loop.FinishEpoch(epoch, config.epochs, mean_loss, diverged)) {
      case ResilientTrainLoop::Verdict::kRetryEpoch:
        continue;
      case ResilientTrainLoop::Verdict::kStop:
        network_.Prepack();
        return OkStatus();
      case ResilientTrainLoop::Verdict::kFailed:
        return loop.status().WithContext("flavor LSTM training");
      case ResilientTrainLoop::Verdict::kNextEpoch:
        break;
    }
    const double epoch_seconds = epoch_timer.ElapsedSeconds();
    const double rows =
        static_cast<double>(epoch_minibatches * batching.BatchSize() * batching.SeqLen());
    loss_series.Append(static_cast<double>(epoch), mean_loss);
    grad_series.Append(static_cast<double>(epoch), optimizer.LastGradNorm());
    lr_series.Append(static_cast<double>(epoch), static_cast<double>(epoch_lr));
    rate_series.Append(static_cast<double>(epoch),
                       epoch_seconds > 0.0 ? rows / epoch_seconds : 0.0);
    CG_LOGF_INFO("flavor LSTM epoch %zu/%zu: loss=%.4f (%.1fs elapsed)", epoch + 1,
                 config.epochs, mean_loss, timer.ElapsedSeconds());
    ++epoch;
  }
  // Parameters are final: build the packed inference weights once.
  network_.Prepack();
  return OkStatus();
}

FlavorLstmModel::EvalResult FlavorLstmModel::Evaluate(const Trace& test) const {
  CG_CHECK(encoder_ != nullptr);
  const FlavorStream stream = BuildStream(test);
  EvalResult result;
  if (stream.tokens.empty()) {
    return result;
  }
  const size_t eob = encoder_->Vocab().EobToken();
  // Single stateful pass over the full stream (no truncation) so every step
  // is scored exactly once, conditioned on the entire history.
  LstmState state = network_.MakeState(1);
  Matrix input(1, encoder_->Dim());
  Matrix logits;
  double nll = 0.0;
  size_t errors = 0;
  double nll_flavor = 0.0;
  size_t errors_flavor = 0;
  size_t flavor_steps = 0;
  for (size_t step = 0; step < stream.tokens.size(); ++step) {
    const size_t prev = step == 0 ? eob : static_cast<size_t>(stream.tokens[step - 1]);
    encoder_->EncodeInto(prev, stream.periods[step], stream.doh_days[step], input.Row(0));
    network_.StepLogits(input, &state, &logits);

    // NLL and argmax from the logits row.
    const float* row = logits.Row(0);
    const size_t classes = logits.Cols();
    float max_v = row[0];
    size_t argmax = 0;
    for (size_t c = 1; c < classes; ++c) {
      if (row[c] > max_v) {
        max_v = row[c];
        argmax = c;
      }
    }
    double sum = 0.0;
    for (size_t c = 0; c < classes; ++c) {
      sum += std::exp(static_cast<double>(row[c] - max_v));
    }
    const double log_prob =
        static_cast<double>(row[stream.tokens[step]] - max_v) - std::log(sum);
    const bool wrong = argmax != static_cast<size_t>(stream.tokens[step]);
    nll -= log_prob;
    if (wrong) {
      ++errors;
    }
    if (static_cast<size_t>(stream.tokens[step]) != eob) {
      nll_flavor -= log_prob;
      if (wrong) {
        ++errors_flavor;
      }
      ++flavor_steps;
    }
  }
  result.steps = stream.tokens.size();
  result.nll = nll / static_cast<double>(result.steps);
  result.one_best_err = static_cast<double>(errors) / static_cast<double>(result.steps);
  result.flavor_steps = flavor_steps;
  if (flavor_steps > 0) {
    result.nll_flavor_only = nll_flavor / static_cast<double>(flavor_steps);
    result.one_best_err_flavor_only =
        static_cast<double>(errors_flavor) / static_cast<double>(flavor_steps);
  }
  return result;
}

std::vector<double> FlavorLstmModel::NextTokenProbs(const FlavorStream& stream,
                                                    size_t upto_step) const {
  CG_CHECK(encoder_ != nullptr);
  CG_CHECK(upto_step <= stream.tokens.size());
  const size_t eob = encoder_->Vocab().EobToken();
  LstmState state = network_.MakeState(1);
  Matrix input(1, encoder_->Dim());
  Matrix logits;
  for (size_t step = 0; step <= upto_step; ++step) {
    const size_t prev = step == 0 ? eob : static_cast<size_t>(stream.tokens[step - 1]);
    const size_t ref = std::min(step, stream.tokens.size() - 1);
    encoder_->EncodeInto(prev, stream.periods[ref], stream.doh_days[ref], input.Row(0));
    network_.StepLogits(input, &state, &logits);
  }
  std::vector<double> probs;
  const double sum = MaxShiftedExp(logits.Row(0), logits.Cols(), &probs);
  for (double& p : probs) {
    p /= sum;
  }
  return probs;
}

FlavorLstmModel::Generator::Generator(const FlavorLstmModel& model, int doh_day,
                                      double eob_scale, GuardPolicy guard)
    : model_(model),
      doh_day_(doh_day),
      eob_scale_(eob_scale),
      guard_(guard),
      state_(model.network_.MakeState(1)),
      prev_token_(model.Vocab().EobToken()),
      input_(1, model.encoder_->Dim()) {
  CG_CHECK(eob_scale > 0.0);
}

void FlavorLstmModel::Generator::SaveState(std::ostream& out) const {
  const auto prev = static_cast<uint64_t>(prev_token_);
  out.write(reinterpret_cast<const char*>(&prev), sizeof(prev));
  WriteLstmState(out, state_);
}

void FlavorLstmModel::Generator::LoadState(std::istream& in) {
  uint64_t prev = 0;
  in.read(reinterpret_cast<char*>(&prev), sizeof(prev));
  CG_CHECK_MSG(static_cast<bool>(in), "truncated flavor generator state");
  prev_token_ = static_cast<size_t>(prev);
  ReadLstmState(in, &state_);
}

void FlavorLstmModel::Generator::StartPeriod(int64_t period, int64_t n_batches,
                                             size_t max_jobs) {
  period_ = period;
  n_batches_ = n_batches;
  max_jobs_ = max_jobs;
  total_jobs_ = 0;
  batches_.clear();
  period_active_ = false;
  if (n_batches <= 0) {
    return;
  }
  batches_.emplace_back();
  period_active_ = true;
}

void FlavorLstmModel::Generator::StepToken(Rng& rng) {
  CG_DCHECK(period_active_);
  // Hot-path metric handle, registered once per process (see metrics.h).
  static obs::Histogram& step_hist =
      obs::Registry::Global().GetHistogram("gen.step_ns", obs::StepLatencyBucketsNs());
  BeginStep(input_.Row(0));
  const auto step_start = std::chrono::steady_clock::now();
  model_.network_.StepLogits(input_, &state_, &logits_, &ws_);
  step_hist.Observe(static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                            std::chrono::steady_clock::now() - step_start)
                                            .count()));
  ConsumeStep(rng);
}

void FlavorLstmModel::Generator::BeginStep(float* x_row) {
  CG_DCHECK(period_active_);
  // The step input always lands in input_ as well: the --guard=fallback
  // re-run inside ConsumeStep replays the step from it.
  float* own = input_.Row(0);
  model_.encoder_->EncodeInto(prev_token_, period_, doh_day_, own);
  if (guard_ == GuardPolicy::kFallback) {
    fallback_state_ = state_;  // Same-shape copy: no steady-state allocation.
  }
  if (x_row != own) {
    std::copy(own, own + input_.Cols(), x_row);
  }
}

void FlavorLstmModel::Generator::ConsumeStep(Rng& rng) {
  CG_DCHECK(period_active_);
  // Hot-path metric handle, registered once per process (see metrics.h).
  static obs::Counter& token_counter = obs::Registry::Global().GetCounter("gen.tokens");
  token_counter.Add(1);
  const size_t eob = model_.Vocab().EobToken();
  if (FaultInjector::Global().ShouldInject(FaultKind::kGenNanLogit)) {
    logits_.Row(0)[0] = std::numeric_limits<float>::quiet_NaN();
  }
  if (guard_ != GuardPolicy::kOff && !AllFinite(logits_.Row(0), logits_.Cols())) {
    CountGuardViolation();
    if (guard_ == GuardPolicy::kAbort) {
      GuardAbort(StrFormat("flavor logits non-finite at period %lld",
                           static_cast<long long>(period_)));
    }
    if (guard_ == GuardPolicy::kFallback) {
      // Redo the step through the reference (non-packed) route from the
      // pre-step snapshot; on healthy weights it is bitwise-identical to
      // the fast path, so the recovered trace matches an unfaulted run.
      state_ = fallback_state_;
      model_.network_.StepLogits(input_, &state_, &logits_);
      if (!AllFinite(logits_.Row(0), logits_.Cols())) {
        GuardAbort("flavor logits non-finite on the reference route too");
      }
      CountGuardFallback();
    }
    // kResample: keep going; the weights are sanitized below.
  }

  // Sample from the softmax distribution (unnormalized weights; Categorical
  // normalizes internally).
  MaxShiftedExp(logits_.Row(0), logits_.Cols(), &ws_.probs);
  ws_.probs[eob] *= eob_scale_;  // What-if batch-size modification (footnote 5).
  if (guard_ == GuardPolicy::kResample && !ValidWeights(ws_.probs)) {
    SanitizeWeights(&ws_.probs);
    CountGuardResample();
  }
  size_t token = rng.Categorical(ws_.probs);

  // Safety: an empty batch is not representable in the data (every batch
  // has >= 1 job), so re-interpret an immediate EOB as the most likely
  // flavor instead — explicitly excluding EOB wherever it sits in the
  // vocabulary, rather than assuming it is the last token.
  if (token == eob && batches_.back().empty()) {
    token = ArgmaxExcluding(ws_.probs, eob);
  }

  if (token == eob) {
    if (static_cast<int64_t>(batches_.size()) == n_batches_) {
      prev_token_ = token;
      period_active_ = false;
      return;
    }
    batches_.emplace_back();
  } else {
    batches_.back().push_back(static_cast<int32_t>(token));
    if (++total_jobs_ >= max_jobs_) {
      obs::Registry::Global().GetCounter("gen.period_truncations").Add(1);
      CG_LOG_WARN("flavor generator hit the per-period job cap; truncating period");
      // Matches the pre-split loop's `break`: the capped token is kept but
      // never fed back, so resuming state is identical.
      period_active_ = false;
      return;
    }
  }
  prev_token_ = token;
}

Status FlavorLstmModel::SaveToFile(const std::string& path) const {
  if (!IsTrained()) {
    return FailedPreconditionError("flavor model is not trained");
  }
  std::ostringstream payload(std::ios::binary);
  network_.Save(payload);
  CG_RETURN_IF_ERROR(WriteSealedFile(path, kSealFlavorModel, 0, std::move(payload).str()));
  return OkStatus();
}

Status FlavorLstmModel::LoadFromFile(const std::string& path, int history_days,
                                     size_t num_flavors) {
  std::string payload;
  CG_RETURN_IF_ERROR(ReadSealedFile(path, kSealFlavorModel, nullptr, &payload)
                         .WithContext("flavor model"));
  // The CRC above guarantees payload integrity; Load's internal invariant
  // checks cannot fire on environmental corruption past this point.
  std::istringstream in(payload, std::ios::binary);
  network_.Load(in);
  encoder_ = std::make_unique<FlavorInputEncoder>(FlavorVocab(num_flavors),
                                                  TemporalFeatureEncoder(history_days));
  if (network_.Config().input_dim != encoder_->Dim()) {
    encoder_.reset();
    return FailedPreconditionError(StrFormat(
        "flavor model %s input dim %zu does not match the encoder dim (%d flavors)",
        path.c_str(), network_.Config().input_dim, static_cast<int>(num_flavors)));
  }
  // Loaded parameters are final: build the packed inference weights once.
  network_.Prepack();
  return OkStatus();
}

}  // namespace cloudgen

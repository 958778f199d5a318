#include "src/nn/sequence_network.h"

#include <algorithm>
#include <cstdint>
#include <fstream>

#include "src/util/check.h"
#include "src/util/rng.h"

namespace cloudgen {

SequenceNetwork::SequenceNetwork(const SequenceNetworkConfig& config, Rng& rng)
    : config_(config),
      lstm_(config.input_dim, config.hidden_dim, config.num_layers, rng) {
  CG_CHECK(config.input_dim > 0 && config.output_dim > 0);
  CG_CHECK(config.hidden_dim > 0 && config.num_layers > 0);
  head_ = Linear(config.hidden_dim, config.output_dim, rng);
}

void SequenceNetwork::ForwardSequence(const std::vector<Matrix>& inputs,
                                      std::vector<Matrix>* logits) {
  CG_CHECK(logits != nullptr);
  lstm_.ForwardSequence(inputs, &cached_hidden_);
  const size_t steps = cached_hidden_.size();
  logits->resize(steps);
  for (size_t t = 0; t < steps; ++t) {
    // The head caches its input per call; for the sequence case we rebuild
    // the per-step cache during backward instead, so use inference forward.
    head_.ForwardInference(cached_hidden_[t], &(*logits)[t]);
  }
}

void SequenceNetwork::BackwardSequence(const std::vector<Matrix>& dlogits) {
  const size_t steps = cached_hidden_.size();
  CG_CHECK_MSG(steps > 0, "BackwardSequence before ForwardSequence");
  CG_CHECK(dlogits.size() == steps);
  std::vector<Matrix> dhidden(steps);
  for (size_t t = 0; t < steps; ++t) {
    // Re-prime the head's cache with this step's input, then backprop.
    Matrix unused;
    head_.Forward(cached_hidden_[t], &unused);
    head_.Backward(dlogits[t], &dhidden[t]);
  }
  lstm_.BackwardSequence(dhidden);
}

LstmState SequenceNetwork::MakeState(size_t batch) const { return lstm_.ZeroState(batch); }

void SequenceNetwork::StepLogits(const Matrix& x, LstmState* state, Matrix* logits,
                                 StepWorkspace* ws) const {
  CG_CHECK(state != nullptr && logits != nullptr);
  if (ws != nullptr && FastPathReady() && x.Rows() == 1 &&
      x.Cols() == config_.input_dim && !state->h.empty() && state->h[0].Rows() == 1) {
    const size_t h4 = 4 * config_.hidden_dim;
    const size_t acc_cols = std::max(h4, config_.output_dim);
    if (ws->gates.Rows() != 1 || ws->gates.Cols() != h4) {
      ws->gates.Resize(1, h4);
    }
    if (ws->acc.Rows() != 1 || ws->acc.Cols() != acc_cols) {
      ws->acc.Resize(1, acc_cols);
    }
    if (logits->Rows() != 1 || logits->Cols() != config_.output_dim) {
      logits->Resize(1, config_.output_dim);
    }
    lstm_.StepForwardFast(x.Row(0), state, ws->gates.Row(0), ws->acc.Row(0));
    head_.StepForwardPacked(state->h.back().Row(0), ws->acc.Row(0), logits->Row(0));
    return;
  }
  Matrix hidden;
  lstm_.StepForward(x, state, &hidden);
  head_.ForwardInference(hidden, logits);
}

void SequenceNetwork::EnsureBatchStep(size_t rows, BatchStepWorkspace* ws) const {
  CG_CHECK(ws != nullptr && rows > 0);
  const size_t h4 = 4 * config_.hidden_dim;
  if (ws->x.Rows() != rows || ws->x.Cols() != config_.input_dim) {
    ws->x.Resize(rows, config_.input_dim);
  }
  if (ws->gates.Rows() != rows || ws->gates.Cols() != h4) {
    ws->gates.Resize(rows, h4);
  }
  if (ws->state.h.size() != config_.num_layers) {
    ws->state = lstm_.ZeroState(rows);
  } else if (ws->state.h[0].Rows() != rows) {
    for (size_t l = 0; l < config_.num_layers; ++l) {
      ws->state.h[l].Resize(rows, config_.hidden_dim);
      ws->state.c[l].Resize(rows, config_.hidden_dim);
    }
  }
}

void SequenceNetwork::StepBatch(BatchStepWorkspace* ws) const {
  CG_CHECK(ws != nullptr);
  lstm_.StepForwardBatch(ws->x, &ws->state, &ws->gates);
  // One blocked GEMM over all gathered rows; per row this is the same
  // beta=0 chain + bias epilogue as StepForwardPacked, so the scattered
  // logits are bitwise-identical to the single-stream fast path.
  head_.ForwardInference(ws->state.h.back(), &ws->logits);
}

void SequenceNetwork::Prepack() {
  lstm_.Prepack();
  head_.Prepack();
}

void SequenceNetwork::InvalidatePacked() {
  lstm_.InvalidatePacked();
  head_.InvalidatePacked();
}

bool SequenceNetwork::FastPathReady() const {
  return lstm_.PackedReady() && head_.PackedReady();
}

std::vector<Matrix*> SequenceNetwork::Params() {
  std::vector<Matrix*> params = lstm_.Params();
  for (Matrix* p : head_.Params()) {
    params.push_back(p);
  }
  return params;
}

std::vector<const Matrix*> SequenceNetwork::Params() const {
  std::vector<const Matrix*> params = lstm_.Params();
  for (const Matrix* p : head_.Params()) {
    params.push_back(p);
  }
  return params;
}

std::vector<Matrix*> SequenceNetwork::Grads() {
  std::vector<Matrix*> grads = lstm_.Grads();
  for (Matrix* g : head_.Grads()) {
    grads.push_back(g);
  }
  return grads;
}

void SequenceNetwork::ZeroGrads() {
  lstm_.ZeroGrads();
  head_.ZeroGrads();
}

size_t SequenceNetwork::NumParameters() const {
  size_t count = 0;
  for (const Matrix* p : Params()) {
    count += p->Size();
  }
  return count;
}

void SequenceNetwork::Save(std::ostream& out) const {
  const uint64_t dims[4] = {config_.input_dim, config_.hidden_dim, config_.num_layers,
                            config_.output_dim};
  out.write(reinterpret_cast<const char*>(dims), sizeof(dims));
  lstm_.Save(out);
  head_.Save(out);
}

void SequenceNetwork::Load(std::istream& in) {
  uint64_t dims[4] = {0, 0, 0, 0};
  in.read(reinterpret_cast<char*>(dims), sizeof(dims));
  CG_CHECK_MSG(static_cast<bool>(in), "SequenceNetwork::Load: truncated stream");
  config_.input_dim = dims[0];
  config_.hidden_dim = dims[1];
  config_.num_layers = dims[2];
  config_.output_dim = dims[3];
  lstm_.Load(in);
  head_.Load(in);
}

bool SequenceNetwork::SaveToFile(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    return false;
  }
  Save(out);
  return static_cast<bool>(out);
}

bool SequenceNetwork::LoadFromFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return false;
  }
  Load(in);
  return true;
}

}  // namespace cloudgen

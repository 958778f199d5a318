#include "src/nn/losses.h"

#include <algorithm>
#include <cmath>

#include "src/nn/activations.h"
#include "src/util/check.h"

namespace cloudgen {

double SoftmaxCrossEntropy(const Matrix& logits, const std::vector<int32_t>& targets,
                           Matrix* dlogits) {
  CG_CHECK(dlogits != nullptr);
  CG_CHECK(targets.size() == logits.Rows());
  const size_t batch = logits.Rows();
  const size_t classes = logits.Cols();
  dlogits->Resize(batch, classes);

  double total_loss = 0.0;
  size_t counted = 0;
  for (size_t r = 0; r < batch; ++r) {
    const int32_t target = targets[r];
    float* drow = dlogits->Row(r);
    if (target == kIgnoreTarget) {
      // Row already zeroed by Resize.
      continue;
    }
    CG_CHECK(target >= 0 && static_cast<size_t>(target) < classes);
    const float* row = logits.Row(r);
    float max_v = row[0];
    for (size_t c = 1; c < classes; ++c) {
      max_v = std::max(max_v, row[c]);
    }
    double sum = 0.0;
    for (size_t c = 0; c < classes; ++c) {
      sum += std::exp(static_cast<double>(row[c] - max_v));
    }
    const double log_sum = std::log(sum) + max_v;
    total_loss += log_sum - row[target];
    ++counted;
    for (size_t c = 0; c < classes; ++c) {
      const double p = std::exp(static_cast<double>(row[c]) - log_sum);
      drow[c] = static_cast<float>(p);
    }
    drow[target] -= 1.0f;
  }
  if (counted == 0) {
    return 0.0;
  }
  const float inv = 1.0f / static_cast<float>(counted);
  dlogits->Scale(inv);
  return total_loss / static_cast<double>(counted);
}

double CensoredSoftmaxCrossEntropy(const Matrix& logits, const std::vector<int32_t>& targets,
                                   const std::vector<uint8_t>& censored, Matrix* dlogits) {
  CG_CHECK(dlogits != nullptr);
  CG_CHECK(targets.size() == logits.Rows());
  CG_CHECK(censored.size() == logits.Rows());
  const size_t batch = logits.Rows();
  const size_t classes = logits.Cols();
  dlogits->Resize(batch, classes);

  double total_loss = 0.0;
  size_t counted = 0;
  std::vector<double> probs(classes);
  for (size_t r = 0; r < batch; ++r) {
    const int32_t target = targets[r];
    float* drow = dlogits->Row(r);
    if (target == kIgnoreTarget) {
      continue;
    }
    CG_CHECK(target >= 0 && static_cast<size_t>(target) < classes);
    const float* row = logits.Row(r);
    float max_v = row[0];
    for (size_t c = 1; c < classes; ++c) {
      max_v = std::max(max_v, row[c]);
    }
    double sum = 0.0;
    for (size_t c = 0; c < classes; ++c) {
      probs[c] = std::exp(static_cast<double>(row[c] - max_v));
      sum += probs[c];
    }
    for (size_t c = 0; c < classes; ++c) {
      probs[c] /= sum;
    }
    ++counted;
    if (censored[r] == 0) {
      // Standard CE on the event bin.
      total_loss += -std::log(std::max(probs[static_cast<size_t>(target)], 1e-300));
      for (size_t c = 0; c < classes; ++c) {
        drow[c] = static_cast<float>(probs[c]);
      }
      drow[target] -= 1.0f;
    } else {
      // Censored: credit for the tail mass at/after the censoring bin.
      // L = -log(S), S = sum_{j >= c} p_j; dL/dz_k = p_k - 1{k>=c} p_k / S.
      double tail = 0.0;
      for (size_t c = static_cast<size_t>(target); c < classes; ++c) {
        tail += probs[c];
      }
      tail = std::max(tail, 1e-12);
      total_loss += -std::log(tail);
      for (size_t c = 0; c < classes; ++c) {
        const double in_tail = c >= static_cast<size_t>(target) ? probs[c] / tail : 0.0;
        drow[c] = static_cast<float>(probs[c] - in_tail);
      }
    }
  }
  if (counted == 0) {
    return 0.0;
  }
  dlogits->Scale(1.0f / static_cast<float>(counted));
  return total_loss / static_cast<double>(counted);
}

double MaskedBceWithLogits(const Matrix& logits, const Matrix& targets, const Matrix& mask,
                           Matrix* dlogits) {
  CG_CHECK(dlogits != nullptr);
  CG_CHECK(logits.SameShape(targets) && logits.SameShape(mask));
  const size_t batch = logits.Rows();
  const size_t dims = logits.Cols();
  dlogits->Resize(batch, dims);

  double total_loss = 0.0;
  size_t counted = 0;
  for (size_t r = 0; r < batch; ++r) {
    const float* y = logits.Row(r);
    const float* t = targets.Row(r);
    const float* m = mask.Row(r);
    float* dy = dlogits->Row(r);
    for (size_t j = 0; j < dims; ++j) {
      if (m[j] == 0.0f) {
        dy[j] = 0.0f;
        continue;
      }
      // Numerically-stable BCE with logits:
      //   loss = max(y, 0) - y*t + log(1 + exp(-|y|)).
      const double yv = y[j];
      const double tv = t[j];
      const double loss = std::max(yv, 0.0) - yv * tv + std::log1p(std::exp(-std::fabs(yv)));
      total_loss += loss;
      const double p = SigmoidScalar(static_cast<float>(yv));
      dy[j] = static_cast<float>(p - tv);
      ++counted;
    }
  }
  if (counted == 0) {
    dlogits->SetZero();
    return 0.0;
  }
  const float inv = 1.0f / static_cast<float>(counted);
  dlogits->Scale(inv);
  return total_loss / static_cast<double>(counted);
}

}  // namespace cloudgen

// Loss functions for the two sequence models.
//
// * SoftmaxCrossEntropy — flavor LSTM (§2.2): multinomial NLL over K flavors
//   plus the EOB token.
// * MaskedBceWithLogits — lifetime LSTM (§2.3): each of the J outputs is an
//   independent logistic hazard; a mask selects the outputs that factor into
//   the likelihood (survived bins contribute (1 - h), the event bin
//   contributes h, bins after the event or censoring point contribute
//   nothing). Mirrors PyTorch's BCEWithLogitsLoss with a per-element weight.
#ifndef SRC_NN_LOSSES_H_
#define SRC_NN_LOSSES_H_

#include <cstdint>
#include <vector>

#include "src/tensor/matrix.h"

namespace cloudgen {

// Computes mean NLL over the batch and the gradient w.r.t. logits.
// `logits` is (B, K); `targets` holds B class indices in [0, K).
// Rows with target == kIgnoreTarget contribute neither loss nor gradient.
inline constexpr int32_t kIgnoreTarget = -1;
double SoftmaxCrossEntropy(const Matrix& logits, const std::vector<int32_t>& targets,
                           Matrix* dlogits);

// Censoring-aware softmax cross-entropy for PMF-parameterized survival
// models (the Kvamme & Borgan alternative to the hazard head): an uncensored
// job with event bin k contributes -log p_k; a job censored in bin c
// contributes -log sum_{j >= c} p_j (the probability of surviving past the
// censoring point). `targets` holds the bin index; `censored` flags each row.
// Returns the mean loss; writes the gradient w.r.t. logits.
double CensoredSoftmaxCrossEntropy(const Matrix& logits, const std::vector<int32_t>& targets,
                                   const std::vector<uint8_t>& censored, Matrix* dlogits);

// Computes summed BCE-with-logits over masked elements, normalized by the
// number of masked elements, and the gradient w.r.t. logits.
// `logits`, `targets`, `mask` are all (B, J); mask elements are 0 or 1.
// Returns 0 with zero gradient if the mask is empty.
//
// Sign convention matches the paper: the hazard is h = sigmoid(y) and a
// target of 1 means "the event happened in this bin" (suffered the hazard).
double MaskedBceWithLogits(const Matrix& logits, const Matrix& targets, const Matrix& mask,
                           Matrix* dlogits);

}  // namespace cloudgen

#endif  // SRC_NN_LOSSES_H_

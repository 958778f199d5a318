// Fully-connected layer: Y = X * W + b, with X of shape (batch, in) and W of
// shape (in, out). Used as the output head of the flavor and lifetime LSTMs.
#ifndef SRC_NN_LINEAR_H_
#define SRC_NN_LINEAR_H_

#include <cstddef>
#include <iosfwd>
#include <vector>

#include "src/tensor/matrix.h"

namespace cloudgen {

class Rng;

class Linear {
 public:
  Linear() = default;
  // Glorot-uniform initialization.
  Linear(size_t in_dim, size_t out_dim, Rng& rng);

  size_t InDim() const { return weight_.Rows(); }
  size_t OutDim() const { return weight_.Cols(); }

  // Forward pass; caches X for the subsequent Backward call.
  void Forward(const Matrix& x, Matrix* y);

  // Inference-only forward (no caching).
  void ForwardInference(const Matrix& x, Matrix* y) const;

  // Zero-allocation single-row forward over the packed weights (PackedReady()
  // must be true). `x` has InDim() elements, `y` OutDim(); `acc` is caller
  // scratch of OutDim() floats. Bitwise-identical to ForwardInference on a
  // one-row input: same GEMV chain as the blocked GEMM, bias added in the
  // epilogue with the same operation order.
  void StepForwardPacked(const float* x, float* acc, float* y) const;

  // Packed-weight cache for the inference fast path: [weight_; bias_] as one
  // contiguous (in+1, out) block. Invalidated by every mutable-parameter
  // route (Params(), Load()); rebuild with Prepack() after the last update.
  void Prepack();
  void InvalidatePacked() { packed_.Resize(0, 0); }
  bool PackedReady() const { return !packed_.Empty(); }

  // Given dL/dY, accumulates parameter gradients and writes dL/dX (optional:
  // pass nullptr when the input gradient is not needed).
  void Backward(const Matrix& dy, Matrix* dx);

  // Parameter access for the optimizer. Order: weight, bias. The mutable
  // overload conservatively invalidates the packed weights.
  std::vector<Matrix*> Params();
  std::vector<const Matrix*> Params() const;
  std::vector<Matrix*> Grads();
  void ZeroGrads();

  void Save(std::ostream& out) const;
  void Load(std::istream& in);

 private:
  Matrix weight_;       // (in, out)
  Matrix bias_;         // (1, out)
  Matrix packed_;       // (in+1, out): rows [0,in) = weight_, row in = bias_.
  Matrix grad_weight_;  // (in, out)
  Matrix grad_bias_;    // (1, out)
  Matrix cached_x_;     // (batch, in) from the last Forward.
};

}  // namespace cloudgen

#endif  // SRC_NN_LINEAR_H_

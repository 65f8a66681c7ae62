// SoftmaxCrossEntropy: the classification loss head.
#pragma once

#include <cstdint>
#include <span>

#include "tensor/context.hpp"
#include "tensor/tensor.hpp"

namespace minsgd::nn {

/// Result of one loss evaluation over a batch.
struct LossResult {
  double loss = 0.0;       // mean cross-entropy over the batch
  std::int64_t correct = 0;  // top-1 hits
};

/// Fused softmax + cross-entropy over (N x classes) logits.
///
/// The gradient convention matches data-parallel summation: `dlogits` is
/// d(mean loss)/d(logits), so summing gradients over P workers and dividing
/// by P reproduces the gradient of the global-batch mean loss.
class SoftmaxCrossEntropy {
 public:
  /// Computes loss/top-1 and, if `dlogits` is non-null, the gradient.
  /// Batch rows are processed in deterministic chunks on `ctx` with the loss
  /// / top-1 partials combined in fixed chunk order, so the result is
  /// bit-identical for any thread count.
  LossResult forward_backward(
      const Tensor& logits, std::span<const std::int32_t> labels,
      Tensor* dlogits, const ComputeContext& ctx) const;
};

}  // namespace minsgd::nn

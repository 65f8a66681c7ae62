// Normalization layers: BatchNorm2d and Local Response Normalization.
//
// The paper's AlexNet story depends on both: stock AlexNet uses LRN, and
// scaling its batch size to 32K required replacing LRN with BN ("AlexNet-BN",
// the refined model by B. Ginsburg cited in the paper).
#pragma once

#include <cstdint>

#include "nn/layer.hpp"

namespace minsgd::nn {

/// Per-channel batch normalization over NCHW with learnable scale (gamma)
/// and shift (beta) and running statistics for inference.
///
/// With `fuse_relu`, the layer is BN followed by ReLU in one pass: forward
/// clamps as it writes y = max(bn(x), 0), and backward folds the y > 0 mask
/// into its reductions and its dx pass. The arithmetic is the unfused
/// pair's, element for element, so the bytes match a BatchNorm2d + ReLU
/// stack; the pre-activation tensor never exists.
class BatchNorm2d final : public Layer {
 public:
  explicit BatchNorm2d(std::int64_t channels, float eps = 1e-5f,
                       float momentum = 0.9f, bool fuse_relu = false);

  /// "bn(C)", or "bn_relu(C)" with the fused ReLU.
  std::string name() const override;
  Shape output_shape(const Shape& input) const override { return input; }
  std::vector<ParamRef> params() override;
  std::vector<BufferRef> buffers() override;
  void init(Rng& rng) override;

  const Tensor& running_mean() const { return running_mean_; }
  const Tensor& running_var() const { return running_var_; }

  /// Backward consumes the cached xhat_/batch_inv_std_ from the training
  /// forward; x supplies its shape only. The fused ReLU's mask is y > 0, so
  /// the fused layer reads y's data.
  bool backward_reads_input() const override { return false; }
  bool backward_reads_output() const override { return relu_; }

 protected:
  void do_forward(const Tensor& x, Tensor& y, bool training,
                  const ComputeContext& ctx, PlanContext& pc) override;
  void do_backward(const Tensor& x, const Tensor& y, const Tensor& dy,
                   Tensor& dx, const ComputeContext& ctx,
                   PlanContext& pc) override;

 private:
  template <bool kRelu>
  void forward_impl(const Tensor& x, Tensor& y, bool training,
                    const ComputeContext& ctx);
  template <bool kRelu>
  void backward_impl(const Tensor& y, const Tensor& dy, Tensor& dx,
                     const ComputeContext& ctx);

  std::int64_t c_;
  float eps_, momentum_;
  bool relu_;
  Tensor gamma_, beta_, dgamma_, dbeta_;
  Tensor running_mean_, running_var_;
  // Cached by the last training forward, consumed by backward.
  Tensor xhat_;
  Tensor batch_inv_std_;
  // Whether the last forward was a training one: an eval forward leaves
  // xhat_/batch_inv_std_ describing an older batch.
  bool last_was_training_ = false;
};

/// Across-channel local response normalization (Krizhevsky 2012 / Caffe):
///   y_c = x_c * (k + (alpha/n) * sum_{c' in window} x_{c'}^2)^{-beta}
class LRN final : public Layer {
 public:
  explicit LRN(std::int64_t local_size = 5, float alpha = 1e-4f,
               float beta = 0.75f, float k = 1.0f);

  std::string name() const override;
  Shape output_shape(const Shape& input) const override { return input; }

  // LRN::do_backward genuinely reads both x and y data, so it keeps the
  // conservative backward_reads_* defaults (true).

 protected:
  void do_forward(const Tensor& x, Tensor& y, bool training,
                  const ComputeContext& ctx, PlanContext& pc) override;
  void do_backward(const Tensor& x, const Tensor& y, const Tensor& dy,
                   Tensor& dx, const ComputeContext& ctx,
                   PlanContext& pc) override;

 private:
  std::int64_t n_;
  float alpha_, beta_, k_;
  Tensor scale_;  // cached (k + alpha/n * window sum of squares)
};

}  // namespace minsgd::nn

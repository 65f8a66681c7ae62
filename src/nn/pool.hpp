// Pooling layers: max, average, and global average.
#pragma once

#include <cstdint>
#include <vector>

#include "nn/layer.hpp"

namespace minsgd::nn {

/// Max pooling over NCHW. Caches argmax indices for backward. Padding is
/// never a candidate, and ties go to the first maximum in row-major tap
/// order; a window with no value above -inf (all -inf or NaN) yields -inf
/// and routes no gradient.
class MaxPool2d final : public Layer {
 public:
  MaxPool2d(std::int64_t kernel, std::int64_t stride, std::int64_t pad = 0);

  std::string name() const override;
  Shape output_shape(const Shape& input) const override;

  /// Backward routes dy through the cached argmax indices; x and y supply
  /// shapes only.
  bool backward_reads_input() const override { return false; }
  bool backward_reads_output() const override { return false; }

 protected:
  void do_forward(const Tensor& x, Tensor& y, bool training,
                  const ComputeContext& ctx, PlanContext& pc) override;
  void do_backward(const Tensor& x, const Tensor& y, const Tensor& dy,
                   Tensor& dx, const ComputeContext& ctx,
                   PlanContext& pc) override;

 private:
  std::int64_t k_, stride_, pad_;
  // Per output element, the argmax's offset inside its (n, c) input plane,
  // or -1. Resized, never refilled: forward writes every element.
  std::vector<std::int32_t> argmax_;
};

/// Average pooling over NCHW (zero-padded cells count toward the divisor,
/// matching Caffe's AVE pooling which the paper's stack used).
class AvgPool2d final : public Layer {
 public:
  AvgPool2d(std::int64_t kernel, std::int64_t stride, std::int64_t pad = 0);

  std::string name() const override;
  Shape output_shape(const Shape& input) const override;

  /// Backward spreads dy uniformly; x and y supply shapes only.
  bool backward_reads_input() const override { return false; }
  bool backward_reads_output() const override { return false; }

 protected:
  void do_forward(const Tensor& x, Tensor& y, bool training,
                  const ComputeContext& ctx, PlanContext& pc) override;
  void do_backward(const Tensor& x, const Tensor& y, const Tensor& dy,
                   Tensor& dx, const ComputeContext& ctx,
                   PlanContext& pc) override;

 private:
  std::int64_t k_, stride_, pad_;
};

/// Global average pooling: NCHW -> (N, C). The ResNet head.
class GlobalAvgPool final : public Layer {
 public:
  std::string name() const override { return "gap"; }
  Shape output_shape(const Shape& input) const override;

  /// Backward spreads dy uniformly; x and y supply shapes only.
  bool backward_reads_input() const override { return false; }
  bool backward_reads_output() const override { return false; }

 protected:
  void do_forward(const Tensor& x, Tensor& y, bool training,
                  const ComputeContext& ctx, PlanContext& pc) override;
  void do_backward(const Tensor& x, const Tensor& y, const Tensor& dy,
                   Tensor& dx, const ComputeContext& ctx,
                   PlanContext& pc) override;
};

}  // namespace minsgd::nn

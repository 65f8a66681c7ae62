#include "nn/activation.hpp"

#include <stdexcept>

#include "tensor/ops.hpp"

namespace minsgd::nn {

void ReLU::do_forward(const Tensor& x, Tensor& y, bool /*training*/,
                      const ComputeContext& ctx, PlanContext& /*pc*/) {
  y.resize(x.shape());
  ctx.parallel_for(0, x.numel(), [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) {
      y[i] = x[i] > 0.0f ? x[i] : 0.0f;
    }
  });
}

void ReLU::do_backward(const Tensor& x, const Tensor& /*y*/, const Tensor& dy,
                       Tensor& dx, const ComputeContext& ctx,
                       PlanContext& /*pc*/) {
  dx.resize(x.shape());
  // x > 0 iff y > 0 for y = max(x, 0), so gating on the input keeps the
  // output out of backward entirely (see backward_reads_output()). dy is
  // loaded on both sides of the mask: a load only where x > 0 cannot be
  // if-converted, and the compiler emits a compare-and-branch per element
  // that mispredicts on about half of real activations.
  const float* xp = x.data();
  const float* gp = dy.data();
  float* out = dx.data();
  ctx.parallel_for(0, x.numel(), [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) {
      const float g = gp[i];
      out[i] = xp[i] > 0.0f ? g : 0.0f;
    }
  });
}

Shape Flatten::output_shape(const Shape& input) const {
  if (input.rank() < 2) {
    throw std::invalid_argument("Flatten: input rank < 2");
  }
  return {input[0], input.numel() / input[0]};
}

void Flatten::do_forward(const Tensor& x, Tensor& y, bool /*training*/,
                         const ComputeContext& ctx, PlanContext& /*pc*/) {
  y.resize(output_shape(x.shape()));
  copy(ctx, x.span(), y.span());
}

void Flatten::do_backward(const Tensor& x, const Tensor& /*y*/,
                          const Tensor& dy, Tensor& dx,
                          const ComputeContext& ctx, PlanContext& /*pc*/) {
  dx.resize(x.shape());
  copy(ctx, dy.span(), dx.span());
}

}  // namespace minsgd::nn

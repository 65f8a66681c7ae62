#include "nn/layer.hpp"

#include "nn/plan.hpp"

namespace minsgd::nn {

void Layer::forward(const Tensor& x, Tensor& y, bool training,
                    const ComputeContext& ctx, PlanContext* pc) {
  MINSGD_CHECK(!x.empty(), name(), "::forward: empty input");
  if (pc != nullptr) {
    // Scope any per-call scratch this call requests to the call itself, so
    // a deep stack's un-planned scratch frees layer by layer instead of
    // accumulating across the pass.
    const std::size_t m = pc->mark();
    do_forward(x, y, training, ctx, *pc);
    pc->release(m);
  } else {
    PlanContext local;
    do_forward(x, y, training, ctx, local);
  }
}

void Layer::backward(const Tensor& x, const Tensor& y, const Tensor& dy,
                     Tensor& dx, const ComputeContext& ctx, PlanContext* pc) {
  MINSGD_CHECK(!x.empty(), name(), "::backward: empty input");
  MINSGD_CHECK(dy.shape() == y.shape(), name(),
               "::backward: dy/y shape mismatch (", dy.numel(), " vs ",
               y.numel(), " elements)");
  if (pc != nullptr) {
    const std::size_t m = pc->mark();
    do_backward(x, y, dy, dx, ctx, *pc);
    pc->release(m);
  } else {
    PlanContext local;
    do_backward(x, y, dy, dx, ctx, local);
  }
}

Shape Layer::plan_forward(PlanBuilder& builder, const Shape& input) {
  builder.tick();
  return output_shape(input);
}

void Layer::plan_backward(PlanBuilder& builder, const Shape& input) {
  (void)input;
  builder.tick();
}

}  // namespace minsgd::nn

// Firing: heap allocation inside a layer's do_forward/do_backward body.
// Scratch must come from the PlanContext so planned steady-state iterations
// allocate nothing. Expected: hot-path-alloc/transitive-alloc once for each
// of the three "bad" lines (the `Tensor tmp = Tensor(...)` line matches
// twice and must still be reported once).
#include "nn/layer.hpp"
#include "tensor/tensor.hpp"

namespace minsgd::nn {

void FakeLayer::do_forward(const Tensor& x, Tensor& y, bool training,
                           const ComputeContext& ctx, PlanContext& pc) {
  Tensor scratch(x.shape());               // bad: per-call Tensor
  Tensor tmp = Tensor(x.shape());          // bad: Tensor temporary
  std::vector<float> partials(8, 0.0f);    // bad: per-call vector
  (void)scratch;
  (void)tmp;
  (void)partials;
  (void)y;
  (void)training;
  (void)ctx;
  (void)pc;
}

void FakeLayer::do_backward(const Tensor& x, const Tensor& y,
                            const Tensor& dy, Tensor& dx,
                            const ComputeContext& ctx, PlanContext& pc) {
  // References and pointers bind existing storage: fine.
  const Tensor& yy = y;
  const Tensor* in = &x;
  // Scratch through the plan context: fine.
  Tensor& col = pc.tensor(0, x.shape());
  // minsgd-analyze: allow(hot-path-alloc): FakeLayer::do_backward's
  // one-time cold-path fallback buffer
  Tensor cold(x.shape());
  (void)yy;
  (void)in;
  (void)col;
  (void)cold;
  (void)dy;
  (void)dx;
  (void)ctx;
}

}  // namespace minsgd::nn

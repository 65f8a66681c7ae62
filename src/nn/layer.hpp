// Layer: the interface every network building block implements.
//
// Layers are stateful: forward() may cache whatever backward() needs
// (pooling argmaxes, batch-norm statistics, dropout masks). The caller keeps
// the activations and passes (x, y, dy) back into backward(). Parameter
// gradients are *accumulated* into ParamRef::grad, so data-parallel code can
// sum local gradients before the optimizer step.
//
// Per-call scratch (im2col buffers, per-chunk reduction partials) is NOT
// allocated by layers: do_forward/do_backward request it from the
// PlanContext they receive (nn/plan.hpp). Inside a Network — which always
// runs on a plan — those requests resolve to pre-laid-out arena slices. A
// leaf layer called standalone gets a per-call context instead, whose
// requests allocate, scoped to the layer call by the NVI wrappers — so
// layer code is identical in both modes and the hot-path-alloc lint rule
// can hold the line mechanically.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/check.hpp"
#include "tensor/context.hpp"
#include "tensor/rng.hpp"
#include "tensor/shape.hpp"
#include "tensor/tensor.hpp"

namespace minsgd::nn {

class PlanBuilder;
class PlanContext;

/// A named view of one learnable parameter and its gradient accumulator.
///
/// `decay` distinguishes weights (subject to L2 weight decay and to the
/// LARS trust-ratio denominator term) from biases / norm scales, which the
/// large-batch recipes exempt.
struct ParamRef {
  std::string name;
  Tensor* value = nullptr;
  Tensor* grad = nullptr;
  bool decay = true;
};

/// A named view of one non-learnable state tensor (e.g. batch-norm running
/// statistics). Buffers are not touched by optimizers but belong in
/// checkpoints: inference is wrong without them.
struct BufferRef {
  std::string name;
  Tensor* value = nullptr;
};

/// Abstract network layer. See file comment for the forward/backward
/// contract. Implementations must be usable for repeated forward/backward
/// cycles with varying batch sizes.
class Layer {
 public:
  virtual ~Layer() = default;

  /// Human-readable layer type + config, e.g. "conv3x3(64->128)/s2".
  virtual std::string name() const = 0;

  /// Output shape produced for a given input shape. Throws on mismatch.
  /// Pinned against forward() by the shape-oracle test
  /// (tests/test_shape_oracle.cpp); the memory planner sizes every arena
  /// slice from it.
  virtual Shape output_shape(const Shape& input) const = 0;

  /// y = f(x). `training` toggles train-time behaviour (dropout, BN stats).
  /// `ctx` supplies the intra-op thread budget; results are bit-identical
  /// for any thread count (see tensor/context.hpp for the chunking rules).
  /// `pc`, when non-null, supplies planned scratch/activation storage; null
  /// gets a throwaway per-call context (a Network then runs on its own
  /// plan).
  /// Precondition (checked): x is non-empty.
  void forward(const Tensor& x, Tensor& y, bool training,
               const ComputeContext& ctx = ComputeContext::default_ctx(),
               PlanContext* pc = nullptr);

  /// Given dL/dy, accumulates parameter gradients and writes dL/dx.
  /// Must be called with the same (x, y) the preceding forward produced.
  /// Preconditions (checked): dy is shaped like y, and x matches what the
  /// preceding forward consumed (dy.shape == y.shape is the generic part;
  /// layers check their own cached-state contracts).
  void backward(const Tensor& x, const Tensor& y, const Tensor& dy, Tensor& dx,
                const ComputeContext& ctx = ComputeContext::default_ctx(),
                PlanContext* pc = nullptr);

  /// Learnable parameters (empty for stateless layers).
  virtual std::vector<ParamRef> params() { return {}; }

  /// Non-learnable persistent state (empty for most layers).
  virtual std::vector<BufferRef> buffers() { return {}; }

  /// Internal random streams (dropout mask generators). Weight-only
  /// checkpoints ignore these, but bit-exact resume must restore them: a
  /// dropout stream restarted from its seed diverges from the uninterrupted
  /// run at the first training forward.
  virtual std::vector<Rng*> rng_streams() { return {}; }

  /// Initializes parameters (no-op for stateless layers).
  virtual void init(Rng& /*rng*/) {}

  /// Forward-pass FLOPs for one image of shape `input` (multiply+add = 2).
  /// Used by the Table 6 scaling-ratio analysis; 0 for negligible layers.
  virtual std::int64_t flops(const Shape& input) const {
    (void)input;
    return 0;
  }

  // Memory planning -------------------------------------------------------
  /// Walks one forward execution of this layer on the plan timeline:
  /// advances the step clock over the region do_forward will occupy,
  /// registers per-call scratch (and, for containers, internal activations)
  /// with the builder, stores the returned TensorIds on the layer, and
  /// returns the output shape. The base version claims a single step and no
  /// scratch — correct for every layer whose do_forward allocates nothing.
  virtual Shape plan_forward(PlanBuilder& builder, const Shape& input);

  /// The backward-direction counterpart, called in output→input layer order
  /// (mirroring do_backward and the grad-ready hook). Base: one step, no
  /// scratch.
  virtual void plan_backward(PlanBuilder& builder, const Shape& input);

  /// Whether do_backward reads x's / y's float *data* (reading only shapes
  /// does not count). The planner ends an activation's liveness at its last
  /// forward read when its producer reports backward_reads_output() == false
  /// and its consumer backward_reads_input() == false, so a wrong `false`
  /// lets the arena overwrite data backward still needs. Defaults are
  /// conservative.
  virtual bool backward_reads_input() const { return true; }
  virtual bool backward_reads_output() const { return true; }

 protected:
  /// Implementation hooks behind the non-virtual forward/backward above.
  /// Implementations must honour the determinism contract: parallelism only
  /// via `ctx`, reductions in fixed chunk order — and the allocation
  /// contract: scratch only via `pc`, requested before parallel regions.
  virtual void do_forward(const Tensor& x, Tensor& y, bool training,
                          const ComputeContext& ctx, PlanContext& pc) = 0;
  virtual void do_backward(const Tensor& x, const Tensor& y, const Tensor& dy,
                           Tensor& dx, const ComputeContext& ctx,
                           PlanContext& pc) = 0;
};

using LayerPtr = std::unique_ptr<Layer>;

}  // namespace minsgd::nn

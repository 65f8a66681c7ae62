// Network: a sequential container of layers that is itself a Layer.
//
// The (x, y, dy) backward contract works for arbitrarily deep stacks
// because the network keeps its inter-layer activations and backward
// gradients itself, and it can therefore be nested (residual blocks hold
// Networks for their branches).
//
// Those tensors live in an ExecutionPlan's arena (nn/plan.hpp):
// plan_forward/plan_backward register them with liveness intervals, and
// do_forward/do_backward bind layer I/O to the arena slices. Every forward
// runs on a plan. A network nested under the plan that walked it (the
// incoming PlanContext carries that plan's epoch) runs on the enclosing
// arena; any other call — a top-level forward, or a context from another
// plan — runs on the plan the network owns, rebuilt when the input shape
// or the training flag changes. A training=false forward builds a
// forward-only plan, and a backward after it throws std::logic_error.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "nn/layer.hpp"
#include "nn/plan.hpp"

namespace minsgd::nn {

/// Sequential layer container that plans its own activation storage.
class Network final : public Layer {
 public:
  Network() = default;
  explicit Network(std::string label) : label_(std::move(label)) {}

  /// Appends a layer; returns a reference for chaining.
  Network& add(LayerPtr layer);

  /// Emplace-style helper: net.emplace<Conv2d>(3, 64, 7, 2, 3).
  template <typename L, typename... Args>
  Network& emplace(Args&&... args) {
    return add(std::make_unique<L>(std::forward<Args>(args)...));
  }

  std::size_t size() const { return layers_.size(); }
  Layer& layer(std::size_t i) { return *layers_.at(i); }

  // Layer interface -----------------------------------------------------
  std::string name() const override;
  Shape output_shape(const Shape& input) const override;
  std::vector<ParamRef> params() override;
  std::vector<BufferRef> buffers() override;
  std::vector<Rng*> rng_streams() override;
  void init(Rng& rng) override;
  std::int64_t flops(const Shape& input) const override;

  Shape plan_forward(PlanBuilder& builder, const Shape& input) override;
  void plan_backward(PlanBuilder& builder, const Shape& input) override;

  /// Whether the first layer's backward reads x's data; the network itself
  /// only routes x through.
  bool backward_reads_input() const override;
  /// do_backward never reads the caller-held y's data — it reads the final
  /// activation's arena slice.
  bool backward_reads_output() const override { return false; }

  /// The plan this network owns: the one its last top-level forward ran on
  /// (unbuilt until then). Nested runs use the enclosing plan instead.
  const ExecutionPlan& plan() const { return plan_; }

  // Whole-network conveniences ------------------------------------------
  /// Total learnable parameter count.
  std::int64_t num_params();

  /// Zeroes every parameter gradient: one fill over grad_span().
  void zero_grad();

  /// Every parameter value / gradient as one contiguous buffer: params()
  /// order, no padding between parameters, 64-byte aligned base. The first
  /// call of either allocates both, copies the current values in and binds
  /// each ParamRef value/grad onto its slice, so span and tensors are the
  /// same memory; the data-parallel trainers allreduce the gradient span in
  /// place. Call on the outermost network: rebinding a parameter is a CHECK
  /// failure, and add() throws once materialized.
  std::span<float> param_span();
  std::span<float> grad_span();

  /// One copy out of / into param_span() (std::invalid_argument on a size
  /// mismatch).
  std::vector<float> flatten_params();
  void unflatten_params(std::span<const float> flat);

  // Gradient-ready observation -------------------------------------------
  /// Hook fired during backward() immediately after layers_[i]->backward()
  /// returns — the point at which layer i's parameter gradients are final
  /// for this pass (parameters are not shared between layers, so no later
  /// backward call touches them).
  ///
  /// Ordering guarantees the comm-overlap machinery relies on:
  ///   * fires output→input (layer index strictly descending),
  ///   * exactly once per top-level layer per backward() call (layers with
  ///     no parameters included),
  ///   * synchronously, on the thread running backward().
  /// A nested Network (e.g. a residual branch) reports once, as a whole,
  /// when the enclosing top-level layer's backward returns.
  using GradReadyHook = std::function<void(std::size_t layer_index, Layer&)>;

  /// Installs (or clears, with nullptr) the gradient-ready hook.
  void set_grad_ready_hook(GradReadyHook hook) {
    grad_ready_hook_ = std::move(hook);
  }

 protected:
  void do_forward(const Tensor& x, Tensor& y, bool training,
                  const ComputeContext& ctx, PlanContext& pc) override;
  void do_backward(const Tensor& x, const Tensor& y, const Tensor& dy,
                   Tensor& dx, const ComputeContext& ctx,
                   PlanContext& pc) override;

 private:
  /// True when `pc` carries the plan this network's ids were assigned by.
  bool plan_matches(const PlanContext& pc) const {
    return pc.planned() && pc.epoch() == plan_epoch_;
  }

  /// True when the owned plan is the one that last walked this network.
  bool self_planned() const {
    return plan_.built() && plan_.epoch() == plan_epoch_;
  }

  /// Rebuilds the owned plan unless self_planned() at `input`/`training`.
  void plan_self(const Shape& input, bool training);

  /// Label-prefixed ParamRef list, built once and reused (the per-iteration
  /// optimizer path must not rebuild name strings every call).
  const std::vector<ParamRef>& cached_params();

  /// Allocates the flat buffers and binds every parameter onto them.
  void materialize();

  struct AlignedFree {
    void operator()(float* p) const;
  };
  using FlatBuffer = std::unique_ptr<float[], AlignedFree>;

  std::string label_ = "net";
  GradReadyHook grad_ready_hook_;
  std::vector<LayerPtr> layers_;
  ExecutionPlan plan_;

  // Plan state from the most recent plan_forward/plan_backward walk, by
  // the owned plan or an enclosing one.
  std::vector<TensorId> plan_act_;    // plan_act_[i] = output of layers_[i]
  std::vector<TensorId> plan_dact_;   // plan_dact_[i] = dL/d(plan_act_[i])
  std::vector<Shape> plan_in_shapes_; // input shape seen by each layer
  Shape plan_input_;
  std::uint64_t plan_epoch_ = 0;
  bool plan_training_ = false;

  // Cached parameter metadata and, once materialized, the flat storage
  // every ParamRef value/grad is bound into.
  std::vector<ParamRef> param_cache_;
  bool param_cache_valid_ = false;
  std::int64_t flat_size_ = 0;
  FlatBuffer param_buf_, grad_buf_;  // null until materialized
};

}  // namespace minsgd::nn

// ExecutionPlan: graph-compiled memory for Network forward/backward.
//
// Instead of every layer allocating activations and scratch per call, a
// plan walks the layer graph once per input geometry (Layer::plan_forward /
// plan_backward, recursing into nested Networks inside residual branches)
// and records every activation, gradient, and per-call scratch tensor with
// its size and liveness interval on a single step timeline: all forward
// steps first, then backward steps in output→input order — the same order
// the grad-ready hook fires, so the plan agrees with comm overlap about
// when each buffer is dead. A TensorArena (tensor/arena.hpp) then lays the
// intervals out with liveness-based aliasing, and execution binds layer I/O
// to arena slices.
//
// Key liveness facts the plan exploits:
//   * dact_i (the gradient flowing into layer i) dies as soon as layer i's
//     backward finishes — the whole backward gradient chain collapses into
//     a two-slot ping-pong.
//   * an activation whose producer never reads its output in backward and
//     whose consumer never reads its input (Layer::backward_reads_output /
//     backward_reads_input) dies at its last forward read — e.g. a conv
//     output feeding batch-norm is dead before backward starts.
//   * a forward-only plan (training == false) skips plan_backward, so every
//     activation dies at its last forward read.
//
// Every Network owns one plan and rebuilds it when the input shape or the
// training flag of a top-level forward changes (nn/network.hpp). The plan
// moves bytes, never arithmetic: tests/reference_walk.hpp runs every leaf
// layer standalone as the semantic reference, bit-identical at any thread
// count.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/check.hpp"
#include "tensor/arena.hpp"
#include "tensor/shape.hpp"
#include "tensor/tensor.hpp"

namespace minsgd::nn {

class Network;

/// Index of a logical tensor inside a plan's arena.
using TensorId = std::int32_t;
inline constexpr TensorId kNoTensor = -1;

/// Accumulates the step timeline and tensor intervals during the
/// plan_forward/plan_backward walk. Layers store the TensorIds this hands
/// out and use them to fetch arena slices through PlanContext at run time.
class PlanBuilder {
 public:
  PlanBuilder(std::uint64_t epoch, bool training)
      : epoch_(epoch), training_(training) {}

  std::uint64_t epoch() const { return epoch_; }
  /// False for a forward-only plan: plan_backward is never walked.
  bool training() const { return training_; }

  /// Advances the step clock; returns the new current step. Steps start at
  /// 1 (0 means "before anything runs").
  std::int32_t tick() { return ++now_; }
  std::int32_t now() const { return now_; }

  /// Registers a tensor of `shape` live over [def, last]; returns its id.
  TensorId add(const Shape& shape, std::int32_t def, std::int32_t last) {
    items_.push_back({shape, shape.numel(), def, last});
    return static_cast<TensorId>(items_.size() - 1);
  }

  /// Per-call scratch of `elems` floats, live only at `step`.
  TensorId scratch(std::int64_t elems, std::int32_t step) {
    items_.push_back({Shape{elems}, elems, step, step});
    return static_cast<TensorId>(items_.size() - 1);
  }

  /// Extends `id`'s liveness to cover `step` (no-op for kNoTensor).
  void extend(TensorId id, std::int32_t step) {
    if (id == kNoTensor) return;
    auto& it = items_.at(static_cast<std::size_t>(id));
    if (step > it.last) it.last = step;
    if (step < it.def) it.def = step;
  }

  std::vector<ArenaItem> take_items() { return std::move(items_); }

 private:
  std::uint64_t epoch_;
  bool training_;
  std::vector<ArenaItem> items_;
  std::int32_t now_ = 0;
};

/// A compiled memory plan for one Network at one input geometry. Each
/// Network owns one (Network::plan()) and rebuilds it from its top-level
/// forward; a standalone plan can also be built over any network, which
/// re-points that network's stored ids at the new arena.
class ExecutionPlan {
 public:
  ExecutionPlan() = default;
  ExecutionPlan(const ExecutionPlan&) = delete;
  ExecutionPlan& operator=(const ExecutionPlan&) = delete;

  /// Walks `net` at `input` — forward and backward, or forward only when
  /// `training` is false — and lays out the arena. Always a rebuild with a
  /// fresh epoch. Exports plan.* metrics: every build bumps plan.rebuilds,
  /// but only a training build sets the plan.arena_bytes/raw_bytes/tensors/
  /// steps gauges, so they keep describing the training arena.
  void build(Network& net, const Shape& input, bool training);

  bool built() const { return built_; }
  /// Process-unique build stamp; layers compare it against the ids they
  /// stored to reject contexts from a different (or rebuilt) plan.
  std::uint64_t epoch() const { return epoch_; }
  bool training() const { return training_; }
  const Shape& input_shape() const { return input_; }

  Tensor& tensor(TensorId id) {
    MINSGD_CHECK(built_ && id >= 0, "ExecutionPlan: bad tensor id ", id);
    return arena_.tensor(static_cast<std::size_t>(id));
  }

  // Stats (also exported as plan.* metrics; see build()).
  std::int64_t arena_bytes() const { return arena_.total_bytes(); }
  std::int64_t raw_bytes() const { return arena_.raw_bytes(); }
  std::int64_t num_tensors() const { return static_cast<std::int64_t>(arena_.size()); }
  std::int32_t steps() const { return steps_; }
  std::int64_t rebuilds() const { return rebuilds_; }

 private:
  TensorArena arena_;
  Shape input_;
  bool built_ = false;
  bool training_ = false;
  std::uint64_t epoch_ = 0;
  std::int32_t steps_ = 0;
  std::int64_t rebuilds_ = 0;
};

/// The scratch/binding handle threaded through do_forward/do_backward.
///
/// Planned (constructed from a built ExecutionPlan): tensor(id, shape)
/// returns the arena slice for `id`, reshaped — no allocation. Per-call
/// (default-constructed, what a standalone leaf-layer call gets): every
/// request allocates a fresh tensor, released when the requesting layer's
/// forward/backward wrapper returns. Containers never run on a per-call
/// context — a Network plans itself. Under a plan every request must name
/// a tensor the plan walk reserved: `id == kNoTensor` is a MINSGD_CHECK
/// failure, never a silent per-call allocation.
class PlanContext {
 public:
  PlanContext() = default;
  explicit PlanContext(ExecutionPlan* plan)
      : plan_(plan), epoch_(plan != nullptr ? plan->epoch() : 0) {}

  PlanContext(PlanContext&&) = default;
  PlanContext& operator=(PlanContext&&) = default;

  bool planned() const { return plan_ != nullptr; }
  ExecutionPlan* plan() const { return plan_; }
  std::uint64_t epoch() const { return epoch_; }

  /// The tensor for `id`, resized to `shape`. See class comment for the
  /// planned/per-call split. References stay valid until the requesting
  /// layer call returns (per-call) or the plan is rebuilt (planned).
  Tensor& tensor(TensorId id, const Shape& shape) {
    if (plan_ != nullptr) {
      Tensor& t = plan_->tensor(id);  // checks id != kNoTensor
      t.resize(shape);
      return t;
    }
    // minsgd-analyze: allow(hot-path-alloc): PlanContext::tensor IS the
    // sanctioned allocator — the per-call storage of a standalone layer
    // call; planned runs take the arena branch above.
    per_call_.push_back(std::make_unique<Tensor>(shape));
    return *per_call_.back();
  }

  /// Raw float scratch of `elems` (a rank-1 tensor under the hood). Layers
  /// that need per-chunk scratch request one chunk-strided block *before*
  /// entering the parallel region and index it by chunk, so no allocation —
  /// per-call or planned — ever happens on a worker thread.
  std::span<float> floats(TensorId id, std::int64_t elems) {
    return tensor(id, Shape{elems}).span();
  }

  // Per-layer-call scoping for per-call scratch; driven by the Layer NVI
  // wrappers, never by layer implementations.
  std::size_t mark() const { return per_call_.size(); }
  void release(std::size_t m) { per_call_.resize(m); }

 private:
  ExecutionPlan* plan_ = nullptr;
  std::uint64_t epoch_ = 0;
  std::vector<std::unique_ptr<Tensor>> per_call_;
};

}  // namespace minsgd::nn

// Residual block: y = relu(branch(x) + shortcut(x)).
//
// The branch and the (optional projection) shortcut are nested Networks, so
// the block composes from the same layers the rest of the stack uses — and
// the memory planner recurses into them the same way: plan_forward walks
// branch then shortcut then the add/relu step, plan_backward mirrors the
// relu-mask → branch backward → shortcut backward → combine order. The
// add/relu step reads both sub-networks' last activations in place
// (Network::forward_view), so neither is copied out. Its intermediate
// tensors live only in the plan's arena, so a block runs only inside a
// planned Network (a standalone call is a CHECK failure; wrap it in a
// one-layer Network).
#pragma once

#include <memory>

#include "nn/network.hpp"

namespace minsgd::nn {

/// Generic residual addition block. `shortcut` may be empty (identity); a
/// non-empty shortcut is typically a strided 1x1 conv + BN projection.
class ResidualBlock final : public Layer {
 public:
  ResidualBlock(std::unique_ptr<Network> branch,
                std::unique_ptr<Network> shortcut = nullptr);

  std::string name() const override;
  Shape output_shape(const Shape& input) const override;
  std::vector<ParamRef> params() override;
  std::vector<BufferRef> buffers() override;
  std::vector<Rng*> rng_streams() override;
  void init(Rng& rng) override;
  std::int64_t flops(const Shape& input) const override;

  Network& branch() { return *branch_; }
  /// nullptr for the identity shortcut.
  Network* shortcut() { return shortcut_.get(); }

  Shape plan_forward(PlanBuilder& builder, const Shape& input) override;
  void plan_backward(PlanBuilder& builder, const Shape& input) override;

  /// x's data is read in backward iff either sub-network's first layer
  /// reads it (both receive x directly).
  bool backward_reads_input() const override;
  /// The final ReLU's backward gates on y > 0, so y's data is read.
  bool backward_reads_output() const override { return true; }

 protected:
  void do_forward(const Tensor& x, Tensor& y, bool training,
                  const ComputeContext& ctx, PlanContext& pc) override;
  void do_backward(const Tensor& x, const Tensor& y, const Tensor& dy,
                   Tensor& dx, const ComputeContext& ctx,
                   PlanContext& pc) override;

 private:
  /// `pc`, CHECKed to carry the plan that walked this block.
  PlanContext& planned(PlanContext& pc) const;

  std::unique_ptr<Network> branch_;
  std::unique_ptr<Network> shortcut_;  // nullptr = identity

  // Arena ids from the plan walk: the backward gradients through the add.
  TensorId plan_d_sum_ = kNoTensor;
  TensorId plan_d_branch_in_ = kNoTensor;
  TensorId plan_d_shortcut_in_ = kNoTensor;
  std::uint64_t plan_epoch_ = 0;
};

}  // namespace minsgd::nn

#include "nn/residual.hpp"

#include <stdexcept>

#include "tensor/ops.hpp"

namespace minsgd::nn {

ResidualBlock::ResidualBlock(std::unique_ptr<Network> branch,
                             std::unique_ptr<Network> shortcut)
    : branch_(std::move(branch)), shortcut_(std::move(shortcut)) {
  if (!branch_) throw std::invalid_argument("ResidualBlock: null branch");
}

std::string ResidualBlock::name() const {
  return shortcut_ ? "resblock(proj)" : "resblock(id)";
}

Shape ResidualBlock::output_shape(const Shape& input) const {
  const Shape b = branch_->output_shape(input);
  const Shape s = shortcut_ ? shortcut_->output_shape(input) : input;
  if (b != s) {
    throw std::invalid_argument("ResidualBlock: branch " + b.str() +
                                " vs shortcut " + s.str() + " mismatch");
  }
  return b;
}

bool ResidualBlock::backward_reads_input() const {
  return branch_->backward_reads_input() ||
         (shortcut_ != nullptr && shortcut_->backward_reads_input());
}

Shape ResidualBlock::plan_forward(PlanBuilder& builder, const Shape& input) {
  plan_epoch_ = builder.epoch();
  const Shape out = branch_->plan_forward(builder, input);
  if (shortcut_) shortcut_->plan_forward(builder, input);
  // add + relu into y reads the branch's and the shortcut's last arena
  // activations in place, so both stay live up to this step.
  const std::int32_t s_add = builder.tick();
  builder.extend(branch_->output_id(), s_add);
  if (shortcut_) builder.extend(shortcut_->output_id(), s_add);
  return out;
}

void ResidualBlock::plan_backward(PlanBuilder& builder, const Shape& input) {
  const Shape out = branch_->output_shape(input);
  // Step 1: relu mask — reads y (the enclosing plan keeps it alive because
  // backward_reads_output() is true) and dy, writes d_sum.
  const std::int32_t s_relu = builder.tick();
  plan_d_sum_ = builder.add(out, s_relu, s_relu);
  // Step region 2: branch backward consumes d_sum as dy, produces d_branch_in.
  const std::int32_t s_b0 = builder.now() + 1;
  branch_->plan_backward(builder, input);
  plan_d_branch_in_ = builder.add(input, s_b0, builder.now());
  // Step region 3: shortcut backward, same shape.
  if (shortcut_) {
    const std::int32_t s_s0 = builder.now() + 1;
    shortcut_->plan_backward(builder, input);
    plan_d_shortcut_in_ = builder.add(input, s_s0, builder.now());
  } else {
    plan_d_shortcut_in_ = kNoTensor;
  }
  // Step 4: combine into dx. d_sum is read through every region above
  // (identity shortcut reads it at the combine itself).
  const std::int32_t s_comb = builder.tick();
  builder.extend(plan_d_sum_, s_comb);
  builder.extend(plan_d_branch_in_, s_comb);
  builder.extend(plan_d_shortcut_in_, s_comb);
}

PlanContext& ResidualBlock::planned(PlanContext& pc) const {
  MINSGD_CHECK(pc.planned() && pc.epoch() == plan_epoch_,
               "ResidualBlock runs only inside a planned Network");
  return pc;
}

void ResidualBlock::do_forward(const Tensor& x, Tensor& y, bool training,
                               const ComputeContext& ctx, PlanContext& pc) {
  planned(pc);
  const Tensor& bo = branch_->forward_view(x, training, ctx, pc);
  const Tensor& sc =
      shortcut_ ? shortcut_->forward_view(x, training, ctx, pc) : x;
  if (bo.shape() != sc.shape()) {
    throw std::logic_error("ResidualBlock: shape mismatch at add");
  }
  y.resize(bo.shape());
  // y = relu(branch + shortcut) in one pass: the same float add and the
  // same select as add() followed by relu_inplace().
  const float* a = bo.data();
  const float* b = sc.data();
  float* out = y.data();
  ctx.parallel_for(0, y.numel(), [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) {
      const float v = a[i] + b[i];
      out[i] = v > 0.0f ? v : 0.0f;
    }
  });
}

void ResidualBlock::do_backward(const Tensor& x, const Tensor& y,
                                const Tensor& dy, Tensor& dx,
                                const ComputeContext& ctx, PlanContext& pc) {
  ExecutionPlan& plan = *planned(pc).plan();
  Tensor& ds = plan.tensor(plan_d_sum_);
  Tensor& dbi = plan.tensor(plan_d_branch_in_);
  // Through the final ReLU: pass gradient where y > 0. dy is loaded on both
  // sides of the mask so the compiler emits a select, not a branch.
  ds.resize(y.shape());
  const float* yp = y.data();
  const float* gp = dy.data();
  float* dsp = ds.data();
  ctx.parallel_for(0, y.numel(), [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) {
      const float g = gp[i];
      dsp[i] = yp[i] > 0.0f ? g : 0.0f;
    }
  });
  // The add fans the gradient out to both the branch and the shortcut.
  // Both sub-networks read only y's shape (their outputs' shape) here.
  branch_->backward(x, y, ds, dbi, ctx, &pc);
  dx.resize(x.shape());
  if (shortcut_) {
    Tensor& dsi = plan.tensor(plan_d_shortcut_in_);
    shortcut_->backward(x, y, ds, dsi, ctx, &pc);
    add(ctx, dbi.span(), dsi.span(), dx.span());
  } else {
    add(ctx, dbi.span(), ds.span(), dx.span());
  }
}

std::vector<ParamRef> ResidualBlock::params() {
  std::vector<ParamRef> all = branch_->params();
  if (shortcut_) {
    auto sp = shortcut_->params();
    all.insert(all.end(), sp.begin(), sp.end());
  }
  return all;
}

std::vector<BufferRef> ResidualBlock::buffers() {
  std::vector<BufferRef> all = branch_->buffers();
  if (shortcut_) {
    auto sb = shortcut_->buffers();
    all.insert(all.end(), sb.begin(), sb.end());
  }
  return all;
}

std::vector<Rng*> ResidualBlock::rng_streams() {
  std::vector<Rng*> all = branch_->rng_streams();
  if (shortcut_) {
    auto ss = shortcut_->rng_streams();
    all.insert(all.end(), ss.begin(), ss.end());
  }
  return all;
}

void ResidualBlock::init(Rng& rng) {
  branch_->init(rng);
  if (shortcut_) shortcut_->init(rng);
}

std::int64_t ResidualBlock::flops(const Shape& input) const {
  std::int64_t f = branch_->flops(input);
  if (shortcut_) f += shortcut_->flops(input);
  return f;
}

}  // namespace minsgd::nn

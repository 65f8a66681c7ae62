// Reference walk: the semantic oracle for planned Network execution.
//
// A Network always runs on an ExecutionPlan, and a ResidualBlock only inside
// one. This oracle computes the same thing with no plan at all: every leaf
// layer is called standalone, so its scratch comes from the per-call
// PlanContext, and the containers are walked here — a Network through
// layer(i), a ResidualBlock through branch()/shortcut() — applying the same
// element-wise ops the planned containers apply (final-activation copy,
// residual add + ReLU, ReLU mask in backward). Every activation and gradient
// is a fresh Tensor the walk holds itself, so nothing aliases. The plan
// moves bytes, never arithmetic, so a planned run must match this walk bit
// for bit at any thread count; tests/test_plan and tests/test_determinism
// hold it to that.
#pragma once

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <span>
#include <vector>

#include "nn/layer.hpp"
#include "nn/network.hpp"
#include "nn/residual.hpp"
#include "optim/sgd.hpp"
#include "tensor/context.hpp"
#include "tensor/ops.hpp"
#include "tensor/rng.hpp"
#include "tensor/tensor.hpp"

namespace minsgd::testing {

class ReferenceWalk {
 public:
  /// y = layer(x). Keeps the container activations backward() needs.
  void forward(nn::Layer& layer, const Tensor& x, Tensor& y, bool training,
               const ComputeContext& ctx) {
    if (auto* net = dynamic_cast<nn::Network*>(&layer)) {
      std::vector<Tensor>& acts = saved_[net];
      acts.assign(net->size(), Tensor{});
      const Tensor* cur = &x;
      for (std::size_t i = 0; i < net->size(); ++i) {
        forward(net->layer(i), *cur, acts[i], training, ctx);
        cur = &acts[i];
      }
      y.resize(cur->shape());
      copy(ctx, cur->span(), y.span());
    } else if (auto* block = dynamic_cast<nn::ResidualBlock*>(&layer)) {
      std::vector<Tensor>& outs = saved_[block];  // branch, shortcut
      outs.assign(2, Tensor{});
      forward(block->branch(), x, outs[0], training, ctx);
      const Tensor* sc = &x;
      if (nn::Network* shortcut = block->shortcut()) {
        forward(*shortcut, x, outs[1], training, ctx);
        sc = &outs[1];
      }
      y.resize(outs[0].shape());
      add(ctx, outs[0].span(), sc->span(), y.span());
      relu_inplace(ctx, y.span());
    } else {
      layer.forward(x, y, training, ctx);
    }
  }

  /// dx and parameter gradients for the preceding forward(layer, x) -> y.
  void backward(nn::Layer& layer, const Tensor& x, const Tensor& y,
                const Tensor& dy, Tensor& dx, const ComputeContext& ctx) {
    if (auto* net = dynamic_cast<nn::Network*>(&layer)) {
      const std::vector<Tensor>& acts = saved_.at(net);
      std::vector<Tensor> grads(net->size());  // grads[i] = dL/d(acts[i])
      const Tensor* cur_dy = &dy;
      for (std::size_t i = net->size(); i-- > 0;) {
        const Tensor& input = i == 0 ? x : acts[i - 1];
        Tensor& out_dx = i == 0 ? dx : grads[i - 1];
        backward(net->layer(i), input, acts[i], *cur_dy, out_dx, ctx);
        cur_dy = &out_dx;
      }
    } else if (auto* block = dynamic_cast<nn::ResidualBlock*>(&layer)) {
      const std::vector<Tensor>& outs = saved_.at(block);
      Tensor d_sum(y.shape());  // through the final ReLU
      for (std::int64_t i = 0; i < y.numel(); ++i) {
        d_sum[i] = y[i] > 0.0f ? dy[i] : 0.0f;
      }
      Tensor d_branch;
      backward(block->branch(), x, outs[0], d_sum, d_branch, ctx);
      dx.resize(x.shape());
      if (nn::Network* shortcut = block->shortcut()) {
        Tensor d_shortcut;
        backward(*shortcut, x, outs[1], d_sum, d_shortcut, ctx);
        add(ctx, d_branch.span(), d_shortcut.span(), dx.span());
      } else {
        add(ctx, d_branch.span(), d_sum.span(), dx.span());
      }
    } else {
      layer.backward(x, y, dy, dx, ctx);
    }
  }

 private:
  std::map<const nn::Layer*, std::vector<Tensor>> saved_;
};

/// Everything a short training run produces, for bitwise comparison.
struct WalkTrace {
  std::vector<float> y, dx, grads;     // every step's, concatenated
  std::vector<float> weights, buffers; // after the last SGD step
  std::vector<float> eval_y;           // a training=false forward after that
};

/// Builds a net with `factory`, initializes it from a fixed seed and runs
/// `steps` SGD steps (forward, backward with a per-step random dy, update)
/// on `x`, then one eval forward. `reference` walks the net with
/// ReferenceWalk; otherwise it runs planned, through its own forward and
/// backward.
template <typename Factory>
WalkTrace trace_steps(const Factory& factory, const Tensor& x,
                      const ComputeContext& ctx, bool reference,
                      int steps = 3) {
  auto net = factory();
  Rng init(123);
  net->init(init);
  auto params = net->params();
  optim::Sgd sgd({.momentum = 0.9, .weight_decay = 0.0005});
  ReferenceWalk walk;
  WalkTrace out;
  const auto append = [](std::vector<float>& v, std::span<const float> s) {
    v.insert(v.end(), s.begin(), s.end());
  };
  Tensor y, dx;
  for (int step = 0; step < steps; ++step) {
    net->zero_grad();
    if (reference) {
      walk.forward(*net, x, y, /*training=*/true, ctx);
    } else {
      net->forward(x, y, /*training=*/true, ctx);
    }
    Tensor dy(y.shape());
    Rng dy_rng(11 + static_cast<std::uint64_t>(step));
    dy_rng.fill_normal(dy.span(), 0.0f, 0.5f);
    if (reference) {
      walk.backward(*net, x, y, dy, dx, ctx);
    } else {
      net->backward(x, y, dy, dx, ctx);
    }
    append(out.y, y.span());
    append(out.dx, dx.span());
    append(out.grads, net->grad_span());
    sgd.step(params, 0.05, ctx);
  }
  append(out.weights, net->param_span());
  for (const auto& b : net->buffers()) append(out.buffers, b.value->span());
  if (reference) {
    walk.forward(*net, x, y, /*training=*/false, ctx);
  } else {
    net->forward(x, y, /*training=*/false, ctx);
  }
  append(out.eval_y, y.span());
  return out;
}

inline bool same_bits(const std::vector<float>& a,
                      const std::vector<float>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

/// The oracle check: at threads {1, 2, 4, 8}, the planned net and the
/// reference walk produce the same y, dx and parameter gradients on every
/// step, the same weights and buffers (BN running statistics) after the
/// last update, and the same eval output — byte for byte.
template <typename Factory>
void expect_planned_matches_reference(const Factory& factory,
                                      const Shape& input) {
  Tensor x(input);
  Rng x_rng(7);
  x_rng.fill_normal(x.span(), 0.0f, 0.5f);
  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    const ComputeContext ctx(threads);
    const WalkTrace ref = trace_steps(factory, x, ctx, /*reference=*/true);
    const WalkTrace planned =
        trace_steps(factory, x, ctx, /*reference=*/false);
    ASSERT_FALSE(ref.y.empty());
    EXPECT_TRUE(same_bits(ref.y, planned.y)) << "y differs, t=" << threads;
    EXPECT_TRUE(same_bits(ref.dx, planned.dx)) << "dx differs, t=" << threads;
    EXPECT_TRUE(same_bits(ref.grads, planned.grads))
        << "grads differ, t=" << threads;
    EXPECT_TRUE(same_bits(ref.weights, planned.weights))
        << "weights differ, t=" << threads;
    EXPECT_TRUE(same_bits(ref.buffers, planned.buffers))
        << "buffers differ, t=" << threads;
    EXPECT_TRUE(same_bits(ref.eval_y, planned.eval_y))
        << "eval y differs, t=" << threads;
  }
}

}  // namespace minsgd::testing

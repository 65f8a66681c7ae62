// Finite-difference gradient checking for layers and networks.
//
// Validates both input gradients (dL/dx) and parameter gradients (dL/dw)
// against central differences of a scalar loss L = sum(w_out * y) with a
// fixed random weighting w_out, which exercises every output element.
#pragma once

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "nn/layer.hpp"
#include "tensor/rng.hpp"
#include "tensor/tensor.hpp"

namespace minsgd::testing {

/// Computes L(x) = sum_i w_out[i] * f(x)[i] for the current layer state.
inline double weighted_output(nn::Layer& layer, const Tensor& x,
                              const std::vector<float>& w_out,
                              const ComputeContext& ctx) {
  Tensor y;
  layer.forward(x, y, /*training=*/true, ctx);
  double acc = 0.0;
  for (std::int64_t i = 0; i < y.numel(); ++i) {
    acc += static_cast<double>(w_out[static_cast<std::size_t>(i)]) * y[i];
  }
  return acc;
}

struct GradCheckOptions {
  double step = 1e-3;        // finite-difference step
  double rel_tol = 2e-2;     // relative tolerance
  double abs_tol = 1e-4;     // absolute floor for near-zero gradients
  bool check_params = true;  // also check dL/dw for every parameter
  /// Skip input positions with |x| below this: finite differences straddle
  /// the kink of piecewise-linear layers (ReLU, max-pool ties) there.
  double kink_skip = 0.0;
};

/// Runs the check. The layer must be deterministic given the same inputs
/// (dropout with a fixed mask is NOT; skip such layers or test specially).
inline void check_gradients(nn::Layer& layer, const Shape& input_shape,
                            std::uint64_t seed = 123,
                            GradCheckOptions opt = {}) {
  const ComputeContext ctx;
  Rng rng(seed);
  Tensor x(input_shape);
  rng.fill_normal(x.span(), 0.0f, 1.0f);
  layer.init(rng);

  Tensor y;
  layer.forward(x, y, /*training=*/true, ctx);
  std::vector<float> w_out(static_cast<std::size_t>(y.numel()));
  Rng wrng(seed ^ 0xabcdef);
  wrng.fill_uniform(w_out, -1.0f, 1.0f);

  // Analytic gradients.
  Tensor dy(y.shape());
  for (std::int64_t i = 0; i < dy.numel(); ++i) {
    dy[i] = w_out[static_cast<std::size_t>(i)];
  }
  for (auto& p : layer.params()) p.grad->zero();
  Tensor dx;
  layer.backward(x, y, dy, dx, ctx);

  auto expect_close = [&](double analytic, double numeric,
                          const std::string& what) {
    const double denom =
        std::max({std::fabs(analytic), std::fabs(numeric), 1.0});
    const double rel = std::fabs(analytic - numeric) / denom;
    EXPECT_TRUE(rel < opt.rel_tol ||
                std::fabs(analytic - numeric) < opt.abs_tol)
        << what << ": analytic=" << analytic << " numeric=" << numeric;
  };

  // Input gradient, sampled positions (all positions for small tensors).
  const std::int64_t nx = x.numel();
  const std::int64_t stride_x = std::max<std::int64_t>(1, nx / 64);
  for (std::int64_t i = 0; i < nx; i += stride_x) {
    if (std::fabs(x[i]) < opt.kink_skip) continue;
    const float orig = x[i];
    x[i] = orig + static_cast<float>(opt.step);
    const double lp = weighted_output(layer, x, w_out, ctx);
    x[i] = orig - static_cast<float>(opt.step);
    const double lm = weighted_output(layer, x, w_out, ctx);
    x[i] = orig;
    expect_close(dx[i], (lp - lm) / (2 * opt.step),
                 "dx[" + std::to_string(i) + "]");
  }

  if (!opt.check_params) return;
  for (auto& p : layer.params()) {
    const std::int64_t np = p.value->numel();
    const std::int64_t stride_p = std::max<std::int64_t>(1, np / 48);
    for (std::int64_t i = 0; i < np; i += stride_p) {
      float& w = (*p.value)[i];
      const float orig = w;
      w = orig + static_cast<float>(opt.step);
      const double lp = weighted_output(layer, x, w_out, ctx);
      w = orig - static_cast<float>(opt.step);
      const double lm = weighted_output(layer, x, w_out, ctx);
      w = orig;
      expect_close((*p.grad)[i], (lp - lm) / (2 * opt.step),
                   p.name + "[" + std::to_string(i) + "]");
    }
  }
  // Restore a clean forward so subsequent assertions see consistent state.
  layer.forward(x, y, /*training=*/true, ctx);
}

}  // namespace minsgd::testing

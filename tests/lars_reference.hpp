// LARS reference step: the semantic oracle for optim::Lars.
//
// This is Lars::do_step as it was before the norm pass was fused and
// lane-interleaved: ||w|| and ||g|| are two separate reductions, each one
// serial double chain per chunk (grain 16384, ops.cpp's kElemGrain, so the
// chunk geometry is the library's), combined in ascending chunk order, then
// the same trust ratio and the same momentum update, element by element.
// The optimizer moves the norm reductions onto other instructions, never
// other arithmetic, so a step must match this reference bit for bit
// (weights, velocity through later steps, and last_local_lrs()); the
// LarsOracle tests in tests/test_optim hold it to that.
#pragma once

#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "nn/layer.hpp"
#include "optim/lars.hpp"
#include "tensor/context.hpp"

namespace minsgd::testing {

class LarsReference {
 public:
  explicit LarsReference(optim::LarsConfig config) : config_(config) {}

  const std::vector<double>& last_local_lrs() const { return last_local_; }

  void step(std::span<nn::ParamRef> params, double lr) {
    if (velocity_.empty()) {
      for (const auto& p : params) {
        velocity_.emplace_back(static_cast<std::size_t>(p.value->numel()),
                               0.0f);
      }
    }
    last_local_.assign(params.size(), 0.0);
    const auto m = static_cast<float>(config_.momentum);
    for (std::size_t i = 0; i < params.size(); ++i) {
      auto& p = params[i];
      const bool adapt = p.decay || config_.adapt_non_decay_params;
      const double wd = p.decay ? config_.weight_decay : 0.0;
      double local = 1.0;
      if (adapt) {
        const double w_norm = chunked_norm(p.value->span());
        const double g_norm = chunked_norm(p.grad->span());
        local = config_.trust_coeff * w_norm /
                (g_norm + wd * w_norm + config_.eps);
        if (w_norm == 0.0) local = 1.0;
        if (config_.clip && local > 1.0) local = 1.0;
        last_local_[i] = local;
      }
      const auto eff = static_cast<float>(lr * local);
      const auto fwd = static_cast<float>(wd);
      const std::int64_t n = p.value->numel();
      float* w = p.value->data();
      const float* g = p.grad->data();
      float* vel = velocity_[i].data();
      for (std::int64_t j = 0; j < n; ++j) {
        vel[j] = m * vel[j] + eff * (g[j] + fwd * w[j]);
        w[j] -= vel[j];
      }
    }
  }

 private:
  static double chunked_norm(std::span<const float> x) {
    const auto n = static_cast<std::int64_t>(x.size());
    const std::int64_t chunks = ComputeContext::chunk_count(n, 16384);
    double acc = 0.0;
    for (std::int64_t c = 0; c < chunks; ++c) {
      const auto [lo, hi] = ComputeContext::chunk_bounds(n, chunks, c);
      double part = 0.0;
      for (std::int64_t j = lo; j < hi; ++j) {
        part += static_cast<double>(x[j]) * static_cast<double>(x[j]);
      }
      acc += part;
    }
    return std::sqrt(acc);
  }

  optim::LarsConfig config_;
  std::vector<std::vector<float>> velocity_;
  std::vector<double> last_local_;
};

}  // namespace minsgd::testing

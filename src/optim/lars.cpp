#include "optim/lars.hpp"

#include <cmath>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "tensor/ops.hpp"

namespace minsgd::optim {

Lars::Lars(LarsConfig config) : config_(config) {
  if (config_.trust_coeff <= 0) {
    throw std::invalid_argument("Lars: trust_coeff must be positive");
  }
  if (config_.momentum < 0 || config_.momentum >= 1) {
    throw std::invalid_argument("Lars: momentum must be in [0, 1)");
  }
  if (config_.weight_decay < 0 || config_.eps < 0) {
    throw std::invalid_argument("Lars: negative weight_decay or eps");
  }
}

void Lars::do_step(std::span<nn::ParamRef> params, double lr,
                   const ComputeContext& ctx) {
  if (velocity_.empty()) {
    velocity_.reserve(params.size());
    for (const auto& p : params) velocity_.emplace_back(p.value->shape());
  }
  if (velocity_.size() != params.size()) {
    throw std::invalid_argument("Lars::step: param list changed size");
  }
  const bool traced = obs::tracer().enabled();
  obs::ScopedSpan span;
  if (traced) {
    span.start("optim.lars", obs::cat::kCompute);
    span.set_threads(static_cast<int>(ctx.threads()));
  }
  last_local_.assign(params.size(), 0.0);
  const auto m = static_cast<float>(config_.momentum);
  for (std::size_t i = 0; i < params.size(); ++i) {
    auto& p = params[i];
    Tensor& v = velocity_[i];
    const bool adapt = p.decay || config_.adapt_non_decay_params;
    const double wd = p.decay ? config_.weight_decay : 0.0;

    double local = 1.0;
    if (adapt) {
      // One lane-interleaved pass for both norms (ops.hpp sum_squares).
      const auto [w_sq, g_sq] = sum_squares(ctx, p.value->span(),
                                            p.grad->span());
      const double w_norm = std::sqrt(w_sq);
      const double g_norm = std::sqrt(g_sq);
      local = config_.trust_coeff * w_norm /
              (g_norm + wd * w_norm + config_.eps);
      // A freshly zero-initialized tensor (w_norm == 0) gets local == 0 and
      // would never move; fall back to the global rate there.
      if (w_norm == 0.0) local = 1.0;
      if (config_.clip && local > 1.0) local = 1.0;
      last_local_[i] = local;
      // Trust-ratio gauges make the paper's core mechanism observable per
      // layer; only published while tracing so the steady-state step stays
      // free of registry lookups.
      if (traced) {
        obs::metrics().gauge("lars.local_lr." + p.name).set(local);
      }
    }

    const auto eff = static_cast<float>(lr * local);
    const auto fwd = static_cast<float>(wd);
    const std::int64_t n = p.value->numel();
    float* w = p.value->data();
    const float* g = p.grad->data();
    float* vel = v.data();
    ctx.parallel_for(
        0, n,
        [&](std::int64_t lo, std::int64_t hi) {
          for (std::int64_t j = lo; j < hi; ++j) {
            vel[j] = m * vel[j] + eff * (g[j] + fwd * w[j]);
            w[j] -= vel[j];
          }
        },
        /*grain=*/8192);
  }
}

void Lars::reset() {
  velocity_.clear();
  last_local_.clear();
}

void Lars::save_state(std::ostream& out) const {
  detail::save_tensor_vector(out, velocity_);
}

void Lars::load_state(std::istream& in) {
  detail::load_tensor_vector(in, velocity_);
  last_local_.clear();
}

}  // namespace minsgd::optim

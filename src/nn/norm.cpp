#include "nn/norm.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <type_traits>

namespace minsgd::nn {

namespace {

// Channels whose serial double reductions run interleaved. Every channel
// keeps its own accumulator and its own addition order (batch-major, then
// spatial), so each sum is bit-identical to reducing one channel at a time;
// interleaving only hands the core kBnGroup independent add chains instead
// of one chain bound on the add latency. Groups are also the parallel unit:
// channel c belongs to group c / kBnGroup, a function of the shape alone.
constexpr std::int64_t kBnGroup = 4;

/// Calls fn(std::integral_constant<std::int64_t, G>) for G = `n` channels
/// (1..kBnGroup), so the group loops below unroll over a constant.
template <typename Fn>
void with_group(std::int64_t n, Fn&& fn) {
  static_assert(kBnGroup == 4, "with_group covers 1..4");
  switch (n) {
    case 4: fn(std::integral_constant<std::int64_t, 4>{}); break;
    case 3: fn(std::integral_constant<std::int64_t, 3>{}); break;
    case 2: fn(std::integral_constant<std::int64_t, 2>{}); break;
    default: fn(std::integral_constant<std::int64_t, 1>{}); break;
  }
}

/// Per-image layout of the G channel planes [c0, c0 + G) of an NCHW tensor:
/// plane g of image n starts at (n * ch + c0 + g) * spatial.
struct Planes {
  std::int64_t batch, ch, c0, spatial;
  std::int64_t base(std::int64_t n) const { return (n * ch + c0) * spatial; }
};

/// sum[g] = sum of x over channel c0 + g.
template <std::int64_t G>
void channel_sums(const float* x, const Planes& p, double* sum) {
  double acc[G] = {};
  for (std::int64_t n = 0; n < p.batch; ++n) {
    const float* src = x + p.base(n);
    for (std::int64_t s = 0; s < p.spatial; ++s) {
      for (std::int64_t g = 0; g < G; ++g) acc[g] += src[g * p.spatial + s];
    }
  }
  for (std::int64_t g = 0; g < G; ++g) sum[g] = acc[g];
}

/// sum[g] = sum of (x - mean[g])^2 over channel c0 + g; the difference is
/// rounded to float before it is squared in double.
template <std::int64_t G>
void channel_sq_sums(const float* x, const Planes& p, const float* mean,
                     double* sum) {
  double acc[G] = {};
  for (std::int64_t n = 0; n < p.batch; ++n) {
    const float* src = x + p.base(n);
    for (std::int64_t s = 0; s < p.spatial; ++s) {
      for (std::int64_t g = 0; g < G; ++g) {
        const double d = src[g * p.spatial + s] - mean[g];
        acc[g] += d * d;
      }
    }
  }
  for (std::int64_t g = 0; g < G; ++g) sum[g] = acc[g];
}

/// g where y > 0, else +0.0f: bit-identical to `y > 0.0f ? g : 0.0f`, but
/// written as a bit-and so the compiler cannot turn it back into a
/// compare-and-branch inside the serial double reductions below (it does
/// for the plain select there, and the branch mispredicts on about half of
/// real activations).
inline float relu_mask(float y, float g) {
  const std::uint32_t keep = 0u - static_cast<std::uint32_t>(y > 0.0f);
  return std::bit_cast<float>(std::bit_cast<std::uint32_t>(g) & keep);
}

/// The backward reductions: sum_dy[g] and sum_dy_xhat[g] over channel
/// c0 + g, where the gradient is dy, masked to y > 0 with the fused ReLU.
template <std::int64_t G, bool kRelu>
void grad_sums(const float* dy, const float* y, const float* xhat,
               const Planes& p, double* sum_dy, double* sum_dy_xhat) {
  double a[G] = {}, b[G] = {};
  for (std::int64_t n = 0; n < p.batch; ++n) {
    const std::int64_t base = p.base(n);
    for (std::int64_t s = 0; s < p.spatial; ++s) {
      for (std::int64_t g = 0; g < G; ++g) {
        const std::int64_t i = base + g * p.spatial + s;
        float gv = dy[i];
        if constexpr (kRelu) gv = relu_mask(y[i], gv);
        a[g] += gv;
        b[g] += static_cast<double>(gv) * xhat[i];
      }
    }
  }
  for (std::int64_t g = 0; g < G; ++g) {
    sum_dy[g] = a[g];
    sum_dy_xhat[g] = b[g];
  }
}

}  // namespace

BatchNorm2d::BatchNorm2d(std::int64_t channels, float eps, float momentum,
                         bool fuse_relu)
    : c_(channels),
      eps_(eps),
      momentum_(momentum),
      relu_(fuse_relu),
      gamma_({channels}, 1.0f),
      beta_({channels}),
      dgamma_({channels}),
      dbeta_({channels}),
      running_mean_({channels}),
      running_var_({channels}, 1.0f),
      batch_inv_std_({channels}) {
  if (c_ <= 0) throw std::invalid_argument("BatchNorm2d: channels <= 0");
}

std::string BatchNorm2d::name() const {
  return (relu_ ? "bn_relu(" : "bn(") + std::to_string(c_) + ")";
}

void BatchNorm2d::do_forward(const Tensor& x, Tensor& y, bool training,
                             const ComputeContext& ctx, PlanContext& /*pc*/) {
  if (x.shape().rank() != 4 || x.shape()[1] != c_) {
    throw std::invalid_argument("BatchNorm2d " + name() + ": bad input " +
                                x.shape().str());
  }
  y.resize(x.shape());
  if (training) xhat_.resize(x.shape());
  last_was_training_ = training;
  if (relu_) {
    forward_impl<true>(x, y, training, ctx);
  } else {
    forward_impl<false>(x, y, training, ctx);
  }
}

template <bool kRelu>
void BatchNorm2d::forward_impl(const Tensor& x, Tensor& y, bool training,
                               const ComputeContext& ctx) {
  const std::int64_t batch = x.shape()[0];
  const std::int64_t spatial = x.shape()[2] * x.shape()[3];
  const std::int64_t m = batch * spatial;  // samples per channel
  const std::int64_t groups = (c_ + kBnGroup - 1) / kBnGroup;

  // Parallel over channel groups: each channel's statistics and
  // normalization are fully serial (double accumulators in fixed batch
  // order), so results are independent of the thread count.
  ctx.parallel_for(0, groups, [&](std::int64_t g_lo, std::int64_t g_hi) {
  for (std::int64_t gi = g_lo; gi < g_hi; ++gi) {
    const std::int64_t c0 = gi * kBnGroup;
    const std::int64_t gn = std::min(kBnGroup, c_ - c0);
    const Planes planes{batch, c_, c0, spatial};
    float mean[kBnGroup] = {}, var[kBnGroup] = {};
    if (training) {
      double acc[kBnGroup] = {};
      with_group(gn, [&](auto G) { channel_sums<G>(x.data(), planes, acc); });
      for (std::int64_t g = 0; g < gn; ++g) {
        mean[g] = static_cast<float>(acc[g] / static_cast<double>(m));
      }
      with_group(gn, [&](auto G) {
        channel_sq_sums<G>(x.data(), planes, mean, acc);
      });
      for (std::int64_t g = 0; g < gn; ++g) {
        const std::int64_t c = c0 + g;
        var[g] = static_cast<float>(acc[g] / static_cast<double>(m));
        running_mean_[c] =
            momentum_ * running_mean_[c] + (1 - momentum_) * mean[g];
        running_var_[c] =
            momentum_ * running_var_[c] + (1 - momentum_) * var[g];
      }
    } else {
      for (std::int64_t g = 0; g < gn; ++g) {
        mean[g] = running_mean_[c0 + g];
        var[g] = running_var_[c0 + g];
      }
    }
    for (std::int64_t g = 0; g < gn; ++g) {
      const std::int64_t c = c0 + g;
      const float mu = mean[g];
      const float inv_std = 1.0f / std::sqrt(var[g] + eps_);
      if (training) batch_inv_std_[c] = inv_std;
      const float gam = gamma_[c], bet = beta_[c];
      for (std::int64_t n = 0; n < batch; ++n) {
        const std::int64_t off = (n * c_ + c) * spatial;
        const float* src = x.data() + off;
        float* dst = y.data() + off;
        float* xh = training ? xhat_.data() + off : nullptr;
        for (std::int64_t s = 0; s < spatial; ++s) {
          const float h = (src[s] - mu) * inv_std;
          if (xh) xh[s] = h;
          const float v = gam * h + bet;
          dst[s] = kRelu ? (v > 0.0f ? v : 0.0f) : v;
        }
      }
    }
  }
  }, /*grain=*/1);
}

void BatchNorm2d::do_backward(const Tensor& x, const Tensor& y,
                              const Tensor& dy, Tensor& dx,
                              const ComputeContext& ctx, PlanContext& /*pc*/) {
  if (!last_was_training_) {
    throw std::logic_error(
        "BatchNorm2d::backward without a preceding training forward (the "
        "last forward was training=false or there was none)");
  }
  if (xhat_.shape() != x.shape()) {
    throw std::logic_error(
        "BatchNorm2d::backward: x differs from the training forward's");
  }
  dx.resize(x.shape());
  if (relu_) {
    backward_impl<true>(y, dy, dx, ctx);
  } else {
    backward_impl<false>(y, dy, dx, ctx);
  }
}

template <bool kRelu>
void BatchNorm2d::backward_impl(const Tensor& y, const Tensor& dy, Tensor& dx,
                                const ComputeContext& ctx) {
  const Shape& shape = xhat_.shape();
  const std::int64_t batch = shape[0];
  const std::int64_t spatial = shape[2] * shape[3];
  const std::int64_t m = batch * spatial;
  const float inv_m = 1.0f / static_cast<float>(m);
  const std::int64_t groups = (c_ + kBnGroup - 1) / kBnGroup;
  const float* yp = kRelu ? y.data() : nullptr;

  ctx.parallel_for(0, groups, [&](std::int64_t g_lo, std::int64_t g_hi) {
  for (std::int64_t gi = g_lo; gi < g_hi; ++gi) {
    const std::int64_t c0 = gi * kBnGroup;
    const std::int64_t gn = std::min(kBnGroup, c_ - c0);
    double sum_dy[kBnGroup] = {}, sum_dy_xhat[kBnGroup] = {};
    with_group(gn, [&](auto G) {
      grad_sums<G, kRelu>(dy.data(), yp, xhat_.data(),
                          Planes{batch, c_, c0, spatial}, sum_dy,
                          sum_dy_xhat);
    });
    for (std::int64_t g = 0; g < gn; ++g) {
      const std::int64_t c = c0 + g;
      dbeta_[c] += static_cast<float>(sum_dy[g]);
      dgamma_[c] += static_cast<float>(sum_dy_xhat[g]);
      const float coeff = gamma_[c] * batch_inv_std_[c];
      const auto sdy = static_cast<float>(sum_dy[g]);
      const auto sdyx = static_cast<float>(sum_dy_xhat[g]);
      for (std::int64_t n = 0; n < batch; ++n) {
        const std::int64_t off = (n * c_ + c) * spatial;
        const float* gp = dy.data() + off;
        const float* xh = xhat_.data() + off;
        float* out = dx.data() + off;
        if constexpr (kRelu) {
          const float* mask = yp + off;
          for (std::int64_t s = 0; s < spatial; ++s) {
            const float g = gp[s];  // loaded unconditionally: a select
            const float gv = mask[s] > 0.0f ? g : 0.0f;
            out[s] = coeff * (gv - inv_m * (sdy + xh[s] * sdyx));
          }
        } else {
          for (std::int64_t s = 0; s < spatial; ++s) {
            out[s] = coeff * (gp[s] - inv_m * (sdy + xh[s] * sdyx));
          }
        }
      }
    }
  }
  }, /*grain=*/1);
}

std::vector<ParamRef> BatchNorm2d::params() {
  // Norm parameters are exempt from weight decay (and hence from the LARS
  // denominator decay term), per the large-batch training recipes.
  return {{"gamma", &gamma_, &dgamma_, /*decay=*/false},
          {"beta", &beta_, &dbeta_, /*decay=*/false}};
}

std::vector<BufferRef> BatchNorm2d::buffers() {
  return {{"running_mean", &running_mean_},
          {"running_var", &running_var_}};
}

void BatchNorm2d::init(Rng& /*rng*/) {
  gamma_.fill(1.0f);
  beta_.zero();
  running_mean_.zero();
  running_var_.fill(1.0f);
}

LRN::LRN(std::int64_t local_size, float alpha, float beta, float k)
    : n_(local_size), alpha_(alpha), beta_(beta), k_(k) {
  if (n_ <= 0 || n_ % 2 == 0) {
    throw std::invalid_argument("LRN: local_size must be positive odd");
  }
}

std::string LRN::name() const { return "lrn(n=" + std::to_string(n_) + ")"; }

void LRN::do_forward(const Tensor& x, Tensor& y, bool /*training*/,
                     const ComputeContext& ctx, PlanContext& /*pc*/) {
  if (x.shape().rank() != 4) {
    throw std::invalid_argument("LRN: input must be NCHW");
  }
  y.resize(x.shape());
  scale_.resize(x.shape());
  const std::int64_t batch = x.shape()[0], ch = x.shape()[1];
  const std::int64_t spatial = x.shape()[2] * x.shape()[3];
  const std::int64_t half = n_ / 2;
  const float a = alpha_ / static_cast<float>(n_);
  ctx.parallel_for(0, batch, [&](std::int64_t n_lo, std::int64_t n_hi) {
  for (std::int64_t n = n_lo; n < n_hi; ++n) {
    for (std::int64_t s = 0; s < spatial; ++s) {
      for (std::int64_t c = 0; c < ch; ++c) {
        double acc = 0.0;
        const std::int64_t lo = std::max<std::int64_t>(0, c - half);
        const std::int64_t hi = std::min(ch - 1, c + half);
        for (std::int64_t cc = lo; cc <= hi; ++cc) {
          const float v = x.data()[(n * ch + cc) * spatial + s];
          acc += static_cast<double>(v) * v;
        }
        const float sc = k_ + a * static_cast<float>(acc);
        scale_.data()[(n * ch + c) * spatial + s] = sc;
        y.data()[(n * ch + c) * spatial + s] =
            x.data()[(n * ch + c) * spatial + s] * std::pow(sc, -beta_);
      }
    }
  }
  }, /*grain=*/1);
}

void LRN::do_backward(const Tensor& x, const Tensor& y, const Tensor& dy,
                      Tensor& dx, const ComputeContext& ctx,
                      PlanContext& /*pc*/) {
  dx.resize(x.shape());
  const std::int64_t batch = x.shape()[0], ch = x.shape()[1];
  const std::int64_t spatial = x.shape()[2] * x.shape()[3];
  const std::int64_t half = n_ / 2;
  const float a = alpha_ / static_cast<float>(n_);
  // dx_i = dy_i * scale_i^{-beta}
  //        - 2*(alpha/n)*beta * x_i * sum_{j: i in window(j)} dy_j*y_j/scale_j
  ctx.parallel_for(0, batch, [&](std::int64_t n_lo, std::int64_t n_hi) {
  for (std::int64_t n = n_lo; n < n_hi; ++n) {
    for (std::int64_t s = 0; s < spatial; ++s) {
      for (std::int64_t c = 0; c < ch; ++c) {
        const std::int64_t idx = (n * ch + c) * spatial + s;
        double cross = 0.0;
        const std::int64_t lo = std::max<std::int64_t>(0, c - half);
        const std::int64_t hi = std::min(ch - 1, c + half);
        for (std::int64_t cc = lo; cc <= hi; ++cc) {
          const std::int64_t jdx = (n * ch + cc) * spatial + s;
          cross += static_cast<double>(dy.data()[jdx]) * y.data()[jdx] /
                   scale_.data()[jdx];
        }
        dx.data()[idx] =
            dy.data()[idx] * std::pow(scale_.data()[idx], -beta_) -
            2.0f * a * beta_ * x.data()[idx] * static_cast<float>(cross);
      }
    }
  }
  }, /*grain=*/1);
}

}  // namespace minsgd::nn

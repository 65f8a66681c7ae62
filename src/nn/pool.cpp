#include "nn/pool.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <stdexcept>

#include "tensor/kernels/reduce.hpp"

namespace minsgd::nn {
namespace {

Shape pooled_shape(const Shape& input, std::int64_t k, std::int64_t stride,
                   std::int64_t pad, const char* what) {
  if (input.rank() != 4) {
    throw std::invalid_argument(std::string(what) + ": input must be NCHW");
  }
  const std::int64_t out_h = (input[2] + 2 * pad - k) / stride + 1;
  const std::int64_t out_w = (input[3] + 2 * pad - k) / stride + 1;
  if (out_h <= 0 || out_w <= 0) {
    throw std::invalid_argument(std::string(what) + ": input too small " +
                                input.str());
  }
  return {input[0], input[1], out_h, out_w};
}

}  // namespace

MaxPool2d::MaxPool2d(std::int64_t kernel, std::int64_t stride, std::int64_t pad)
    : k_(kernel), stride_(stride), pad_(pad) {
  if (k_ <= 0 || stride_ <= 0 || pad_ < 0) {
    throw std::invalid_argument("MaxPool2d: invalid configuration");
  }
}

std::string MaxPool2d::name() const {
  return "maxpool" + std::to_string(k_) + "/s" + std::to_string(stride_);
}

Shape MaxPool2d::output_shape(const Shape& input) const {
  return pooled_shape(input, k_, stride_, pad_, "MaxPool2d");
}

namespace {

/// The running max of a window takes tap value v at in-plane offset c iff
/// v > best (strict, so the first maximum wins and NaN never wins). Written
/// as a bit-mask select so it stays branch-free: the compiler turns the
/// plain select back into compare-and-branch in scalar code.
inline void take_max(float v, std::int32_t c, float& best,
                     std::int32_t& best_idx) {
  const std::uint32_t take = 0u - static_cast<std::uint32_t>(v > best);
  best = std::bit_cast<float>((std::bit_cast<std::uint32_t>(v) & take) |
                              (std::bit_cast<std::uint32_t>(best) & ~take));
  best_idx = static_cast<std::int32_t>(
      (static_cast<std::uint32_t>(c) & take) |
      (static_cast<std::uint32_t>(best_idx) & ~take));
}

/// One tap of every window in a max-pool output row: for each output column
/// j in [j_lo, j_hi), input column j * stride + off of `row` is that
/// window's next tap in row-major order. Every operand is loaded
/// unconditionally, so the selects vectorize across columns; kStride > 0
/// fixes the stride at compile time (the strided load then vectorizes too),
/// 0 takes `stride`.
template <std::int64_t kStride>
void pool_taps(const float* row, std::int64_t row_base, std::int64_t stride,
               std::int64_t off, std::int64_t j_lo, std::int64_t j_hi,
               float* best, std::int32_t* best_idx) {
  const std::int64_t st = kStride > 0 ? kStride : stride;
  for (std::int64_t j = j_lo; j < j_hi; ++j) {
    const std::int64_t c = j * st + off;
    take_max(row[c], static_cast<std::int32_t>(row_base + c), best[j],
             best_idx[j]);
  }
}

/// One (n, c) plane of a padded or overlapping max-pool: an output row is
/// built in place in y and argmax, one pass over the output columns per
/// in-bounds input row of its windows (a clamped range, so padding is
/// never read) and per column tap, so every window sees its taps in
/// row-major order. kStride as in pool_taps.
template <std::int64_t kStride>
void pool_plane_taps(const float* src, std::int64_t h, std::int64_t w,
                     std::int64_t oh, std::int64_t ow, std::int64_t k,
                     std::int64_t stride, std::int64_t pad, float* y,
                     std::int32_t* arg) {
  for (std::int64_t i = 0; i < oh; ++i) {
    float* best = y + i * ow;
    std::int32_t* best_idx = arg + i * ow;
    std::fill(best, best + ow, -std::numeric_limits<float>::infinity());
    std::fill(best_idx, best_idx + ow, -1);
    const std::int64_t h0 = i * stride - pad;
    const std::int64_t r_hi = std::min(h0 + k, h);
    for (std::int64_t r = std::max<std::int64_t>(h0, 0); r < r_hi; ++r) {
      for (std::int64_t kj = 0; kj < k; ++kj) {
        // Columns j whose tap j * stride + off lies inside the row.
        const std::int64_t off = kj - pad;
        const std::int64_t j_lo = off >= 0 ? 0 : (stride - 1 - off) / stride;
        const std::int64_t j_hi =
            off >= w ? 0 : std::min(ow, (w - 1 - off) / stride + 1);
        pool_taps<kStride>(src + r * w, r * w, stride, off, j_lo, j_hi, best,
                           best_idx);
      }
    }
  }
}

/// One (n, c) plane of a max-pool whose windows tile the input (k ==
/// stride, no padding): every window is scanned in one go, its k * k taps
/// in row-major order, and written once. kK fixes k at compile time; 0
/// takes `k`.
template <std::int64_t kK>
void pool_plane_tiled(const float* src, std::int64_t w, std::int64_t oh,
                      std::int64_t ow, std::int64_t k_arg, float* y,
                      std::int32_t* arg) {
  const std::int64_t k = kK > 0 ? kK : k_arg;
  for (std::int64_t i = 0; i < oh; ++i) {
    for (std::int64_t j = 0; j < ow; ++j) {
      float best = -std::numeric_limits<float>::infinity();
      std::int32_t best_idx = -1;
      for (std::int64_t ki = 0; ki < k; ++ki) {
        const std::int64_t base = (i * k + ki) * w + j * k;
        for (std::int64_t kj = 0; kj < k; ++kj) {
          take_max(src[base + kj], static_cast<std::int32_t>(base + kj), best,
                   best_idx);
        }
      }
      y[i * ow + j] = best;
      arg[i * ow + j] = best_idx;
    }
  }
}

}  // namespace

void MaxPool2d::do_forward(const Tensor& x, Tensor& y, bool /*training*/,
                           const ComputeContext& ctx, PlanContext& /*pc*/) {
  const Shape out = output_shape(x.shape());
  const std::int64_t h = x.shape()[2], w = x.shape()[3];
  if (h * w > std::numeric_limits<std::int32_t>::max()) {
    throw std::invalid_argument("MaxPool2d: input plane too large " +
                                x.shape().str());
  }
  y.resize(out);
  argmax_.resize(static_cast<std::size_t>(out.numel()));
  const std::int64_t planes = out[0] * out[1], oh = out[2], ow = out[3];
  const std::int64_t k = k_, stride = stride_, pad = pad_;
  const bool tiled = k == stride && pad == 0;
  // Every (n, c) plane is independent.
  ctx.parallel_for(0, planes, [&](std::int64_t p_lo, std::int64_t p_hi) {
    for (std::int64_t p = p_lo; p < p_hi; ++p) {
      const float* src = x.data() + p * h * w;
      float* dst = y.data() + p * oh * ow;
      std::int32_t* arg = argmax_.data() + p * oh * ow;
      if (tiled && k == 2) {
        pool_plane_tiled<2>(src, w, oh, ow, k, dst, arg);
      } else if (tiled) {
        pool_plane_tiled<0>(src, w, oh, ow, k, dst, arg);
      } else if (stride == 2) {
        pool_plane_taps<2>(src, h, w, oh, ow, k, stride, pad, dst, arg);
      } else {
        pool_plane_taps<0>(src, h, w, oh, ow, k, stride, pad, dst, arg);
      }
    }
  }, /*grain=*/1);
}

void MaxPool2d::do_backward(const Tensor& x, const Tensor& y, const Tensor& dy,
                            Tensor& dx, const ComputeContext& ctx,
                            PlanContext& /*pc*/) {
  MINSGD_CHECK(static_cast<std::int64_t>(argmax_.size()) == y.numel(),
               name(), "::backward: no forward at this shape");
  dx.resize(x.shape());
  // Every argmax of plane p lies inside plane p of dx, so plane chunks
  // write disjoint ranges; within a plane, gradients accumulate in output
  // order.
  const std::int64_t planes = y.shape()[0] * y.shape()[1];
  const std::int64_t in_plane = x.shape()[2] * x.shape()[3];
  const std::int64_t out_plane = y.shape()[2] * y.shape()[3];
  ctx.parallel_for(
      0, planes,
      [&](std::int64_t p_lo, std::int64_t p_hi) {
        for (std::int64_t p = p_lo; p < p_hi; ++p) {
          float* dst = dx.data() + p * in_plane;
          const float* g = dy.data() + p * out_plane;
          const std::int32_t* arg = argmax_.data() + p * out_plane;
          std::fill(dst, dst + in_plane, 0.0f);
          for (std::int64_t o = 0; o < out_plane; ++o) {
            if (arg[o] >= 0) dst[arg[o]] += g[o];
          }
        }
      },
      /*grain=*/1);
}

AvgPool2d::AvgPool2d(std::int64_t kernel, std::int64_t stride, std::int64_t pad)
    : k_(kernel), stride_(stride), pad_(pad) {
  if (k_ <= 0 || stride_ <= 0 || pad_ < 0) {
    throw std::invalid_argument("AvgPool2d: invalid configuration");
  }
}

std::string AvgPool2d::name() const {
  return "avgpool" + std::to_string(k_) + "/s" + std::to_string(stride_);
}

Shape AvgPool2d::output_shape(const Shape& input) const {
  return pooled_shape(input, k_, stride_, pad_, "AvgPool2d");
}

void AvgPool2d::do_forward(const Tensor& x, Tensor& y, bool /*training*/,
                           const ComputeContext& ctx, PlanContext& /*pc*/) {
  const Shape out = output_shape(x.shape());
  y.resize(out);
  const std::int64_t batch = out[0], ch = out[1], oh = out[2], ow = out[3];
  const std::int64_t h = x.shape()[2], w = x.shape()[3];
  const float inv = 1.0f / static_cast<float>(k_ * k_);
  ctx.parallel_for(0, batch, [&](std::int64_t n_lo, std::int64_t n_hi) {
  for (std::int64_t n = n_lo; n < n_hi; ++n) {
    for (std::int64_t c = 0; c < ch; ++c) {
      for (std::int64_t i = 0; i < oh; ++i) {
        for (std::int64_t j = 0; j < ow; ++j) {
          double acc = 0.0;
          for (std::int64_t ki = 0; ki < k_; ++ki) {
            const std::int64_t ih = i * stride_ - pad_ + ki;
            if (ih < 0 || ih >= h) continue;
            for (std::int64_t kj = 0; kj < k_; ++kj) {
              const std::int64_t iw = j * stride_ - pad_ + kj;
              if (iw < 0 || iw >= w) continue;
              acc += x.at(n, c, ih, iw);
            }
          }
          y.at(n, c, i, j) = static_cast<float>(acc) * inv;
        }
      }
    }
  }
  }, /*grain=*/1);
}

void AvgPool2d::do_backward(const Tensor& x, const Tensor& y, const Tensor& dy,
                            Tensor& dx, const ComputeContext& ctx,
                            PlanContext& /*pc*/) {
  dx.resize(x.shape());
  dx.zero();
  const Shape out = y.shape();
  const std::int64_t batch = out[0], ch = out[1], oh = out[2], ow = out[3];
  const std::int64_t h = x.shape()[2], w = x.shape()[3];
  const float inv = 1.0f / static_cast<float>(k_ * k_);
  ctx.parallel_for(0, batch, [&](std::int64_t n_lo, std::int64_t n_hi) {
  for (std::int64_t n = n_lo; n < n_hi; ++n) {
    for (std::int64_t c = 0; c < ch; ++c) {
      for (std::int64_t i = 0; i < oh; ++i) {
        for (std::int64_t j = 0; j < ow; ++j) {
          const float g = dy.at(n, c, i, j) * inv;
          for (std::int64_t ki = 0; ki < k_; ++ki) {
            const std::int64_t ih = i * stride_ - pad_ + ki;
            if (ih < 0 || ih >= h) continue;
            for (std::int64_t kj = 0; kj < k_; ++kj) {
              const std::int64_t iw = j * stride_ - pad_ + kj;
              if (iw < 0 || iw >= w) continue;
              dx.at(n, c, ih, iw) += g;
            }
          }
        }
      }
    }
  }
  }, /*grain=*/1);
}

Shape GlobalAvgPool::output_shape(const Shape& input) const {
  if (input.rank() != 4) {
    throw std::invalid_argument("GlobalAvgPool: input must be NCHW");
  }
  return {input[0], input[1]};
}

void GlobalAvgPool::do_forward(const Tensor& x, Tensor& y, bool /*training*/,
                               const ComputeContext& ctx, PlanContext& /*pc*/) {
  const Shape out = output_shape(x.shape());
  y.resize(out);
  const std::int64_t batch = out[0], ch = out[1];
  const std::int64_t spatial = x.shape()[2] * x.shape()[3];
  const float inv = 1.0f / static_cast<float>(spatial);
  ctx.parallel_for(
      0, batch,
      [&](std::int64_t n_lo, std::int64_t n_hi) {
        for (std::int64_t n = n_lo; n < n_hi; ++n) {
          // Each channel's plane sum, kMaxLanes planes per pass.
          for (std::int64_t c0 = 0; c0 < ch; c0 += kernels::kMaxLanes) {
            const std::int64_t count = std::min(kernels::kMaxLanes, ch - c0);
            double sums[kernels::kMaxLanes];
            kernels::plane_sums(x.data() + (n * ch + c0) * spatial, count,
                                spatial, sums);
            for (std::int64_t i = 0; i < count; ++i) {
              y.at(n, c0 + i) = static_cast<float>(sums[i]) * inv;
            }
          }
        }
      },
      /*grain=*/1);
}

void GlobalAvgPool::do_backward(const Tensor& x, const Tensor& /*y*/,
                                const Tensor& dy, Tensor& dx,
                                const ComputeContext& ctx,
                                PlanContext& /*pc*/) {
  dx.resize(x.shape());
  const std::int64_t batch = x.shape()[0], ch = x.shape()[1];
  const std::int64_t spatial = x.shape()[2] * x.shape()[3];
  const float inv = 1.0f / static_cast<float>(spatial);
  ctx.parallel_for(
      0, batch,
      [&](std::int64_t n_lo, std::int64_t n_hi) {
        for (std::int64_t n = n_lo; n < n_hi; ++n) {
          for (std::int64_t c = 0; c < ch; ++c) {
            float* dst = dx.data() + (n * ch + c) * spatial;
            const float g = dy.at(n, c) * inv;
            for (std::int64_t s = 0; s < spatial; ++s) dst[s] = g;
          }
        }
      },
      /*grain=*/1);
}

}  // namespace minsgd::nn

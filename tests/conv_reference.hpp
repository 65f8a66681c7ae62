// The im2col reference for an ungrouped Conv2d: every pass lowered through
// kernels::conv2d_{forward,backward}_im2col, whatever lowering Conv2d
// itself picks for the shape, with Conv2d's batch chunking and its
// fixed-order dW/db combine. The fused and gemm lowerings must reproduce
// these bytes wherever they apply (test_conv's ConvOracle suite;
// bench_kernels times it as the im2col arm).
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "tensor/context.hpp"
#include "tensor/kernels/conv_direct.hpp"
#include "tensor/kernels/reduce.hpp"
#include "tensor/tensor.hpp"

namespace minsgd::testing {

inline kernels::Conv2dGeom conv_geom(const Tensor& x, const Tensor& w,
                                     std::int64_t stride, std::int64_t pad) {
  const std::int64_t k = w.shape()[2];
  const std::int64_t out_h = (x.shape()[2] + 2 * pad - k) / stride + 1;
  const std::int64_t out_w = (x.shape()[3] + 2 * pad - k) / stride + 1;
  return {x.shape()[1], x.shape()[2], x.shape()[3], w.shape()[0], out_h,
          out_w,        k,            stride,       pad};
}

/// y on the im2col lowering. `bias` may be null.
inline std::vector<float> im2col_forward(const ComputeContext& ctx,
                                         const Tensor& x, const Tensor& w,
                                         const Tensor* bias,
                                         std::int64_t stride,
                                         std::int64_t pad) {
  const kernels::Conv2dGeom g = conv_geom(x, w, stride, pad);
  const std::int64_t in_plane = g.in_c * g.h * g.w;
  std::vector<float> y(
      static_cast<std::size_t>(x.shape()[0] * g.out_c * g.spatial()));
  std::vector<float> col(static_cast<std::size_t>(g.kdim() * g.spatial()));
  for (std::int64_t n = 0; n < x.shape()[0]; ++n) {
    kernels::conv2d_forward_im2col(
        ctx, x.data() + n * in_plane, w.data(),
        bias != nullptr ? bias->data() : nullptr,
        y.data() + n * g.out_c * g.spatial(), col.data(), /*groups=*/1, g);
  }
  return y;
}

/// dx, dW, then db (when `bias` is not null) on the im2col lowering,
/// concatenated: the order Conv2d's params() lists the gradients in. dW/db
/// are summed per batch chunk from zero — chunk_count(batch, 1) chunks,
/// Conv2d's count while its ~8 MB partial cap does not bind — and the
/// partials are added onto zeroed gradients in chunk order, as
/// Conv2d::do_backward does.
inline std::vector<float> im2col_backward(const ComputeContext& ctx,
                                          const Tensor& x, const Tensor& w,
                                          const Tensor* bias, const Tensor& dy,
                                          std::int64_t stride,
                                          std::int64_t pad) {
  const kernels::Conv2dGeom g = conv_geom(x, w, stride, pad);
  const std::int64_t batch = x.shape()[0];
  const std::int64_t in_plane = g.in_c * g.h * g.w;
  const std::int64_t spatial = g.spatial();
  const std::int64_t wn = w.numel();
  const std::int64_t bn = bias != nullptr ? g.out_c : 0;
  // out is [dx | dW | db]; part is one chunk's [dW | db].
  std::vector<float> out(static_cast<std::size_t>(x.numel() + wn + bn), 0.0f);
  std::vector<float> part(static_cast<std::size_t>(wn + bn));
  std::vector<float> col(static_cast<std::size_t>(g.kdim() * spatial));
  std::vector<float> dcol(col.size());
  float* const grads = out.data() + x.numel();
  const std::int64_t chunks = ComputeContext::chunk_count(batch, 1);
  for (std::int64_t c = 0; c < chunks; ++c) {
    const auto [lo, hi] = ComputeContext::chunk_bounds(batch, chunks, c);
    if (lo >= hi) continue;
    std::fill(part.begin(), part.end(), 0.0f);
    for (std::int64_t n = lo; n < hi; ++n) {
      const float* dyn = dy.data() + n * g.out_c * spatial;
      kernels::conv2d_backward_im2col(ctx, x.data() + n * in_plane, dyn,
                                      w.data(), part.data(),
                                      out.data() + n * in_plane, col.data(),
                                      dcol.data(), /*groups=*/1, g);
      for (std::int64_t oc0 = 0; oc0 < bn; oc0 += kernels::kMaxLanes) {
        const std::int64_t count = std::min(kernels::kMaxLanes, bn - oc0);
        double sums[kernels::kMaxLanes];
        kernels::plane_sums(dyn + oc0 * spatial, count, spatial, sums);
        for (std::int64_t i = 0; i < count; ++i) {
          part[static_cast<std::size_t>(wn + oc0 + i)] +=
              static_cast<float>(sums[i]);
        }
      }
    }
    for (std::int64_t i = 0; i < wn + bn; ++i) {
      grads[i] += part[static_cast<std::size_t>(i)];
    }
  }
  return out;
}

/// y, dx, dW, then db: im2col_forward followed by im2col_backward.
inline std::vector<float> im2col_passes(const ComputeContext& ctx,
                                        const Tensor& x, const Tensor& w,
                                        const Tensor* bias, const Tensor& dy,
                                        std::int64_t stride, std::int64_t pad) {
  std::vector<float> out = im2col_forward(ctx, x, w, bias, stride, pad);
  const std::vector<float> grads =
      im2col_backward(ctx, x, w, bias, dy, stride, pad);
  out.insert(out.end(), grads.begin(), grads.end());
  return out;
}

}  // namespace minsgd::testing

#include "nn/conv.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "nn/init.hpp"
#include "tensor/gemm.hpp"
#include "tensor/kernels/reduce.hpp"

namespace minsgd::nn {

Conv2d::Conv2d(std::int64_t in_channels, std::int64_t out_channels,
               std::int64_t kernel, std::int64_t stride, std::int64_t pad,
               bool bias, std::int64_t groups)
    : in_c_(in_channels),
      out_c_(out_channels),
      k_(kernel),
      stride_(stride),
      pad_(pad),
      groups_(groups),
      has_bias_(bias),
      w_({out_channels, in_channels / groups, kernel, kernel}),
      b_(bias ? Tensor({out_channels}) : Tensor()),
      dw_({out_channels, in_channels / groups, kernel, kernel}),
      db_(bias ? Tensor({out_channels}) : Tensor()) {
  if (in_c_ <= 0 || out_c_ <= 0 || k_ <= 0 || stride_ <= 0 || pad_ < 0 ||
      groups_ <= 0 || in_c_ % groups_ != 0 || out_c_ % groups_ != 0) {
    throw std::invalid_argument("Conv2d: invalid configuration");
  }
}

std::string Conv2d::name() const {
  std::string s = "conv" + std::to_string(k_) + "x" + std::to_string(k_) +
                  "(" + std::to_string(in_c_) + "->" + std::to_string(out_c_) +
                  ")/s" + std::to_string(stride_);
  if (groups_ > 1) s += "/g" + std::to_string(groups_);
  return s;
}

Shape Conv2d::output_shape(const Shape& input) const {
  if (input.rank() != 4 || input[1] != in_c_) {
    throw std::invalid_argument("Conv2d " + name() + ": bad input " +
                                input.str());
  }
  const std::int64_t out_h = (input[2] + 2 * pad_ - k_) / stride_ + 1;
  const std::int64_t out_w = (input[3] + 2 * pad_ - k_) / stride_ + 1;
  if (out_h <= 0 || out_w <= 0) {
    throw std::invalid_argument("Conv2d " + name() + ": input too small " +
                                input.str());
  }
  return {input[0], out_c_, out_h, out_w};
}

kernels::Conv2dGeom Conv2d::geom(const Shape& input) const {
  const Shape out = output_shape(input);
  return {in_c_, input[2], input[3], out_c_, out[2], out[3],
          k_,    stride_,  pad_};
}

kernels::ConvLowering Conv2d::lowering(const Shape& input,
                                       kernels::ConvPass pass) const {
  return kernels::conv2d_lowering(geom(input), groups_, pass);
}

std::int64_t Conv2d::backward_chunks(std::int64_t batch) const {
  // Chunk count derived from (batch, weight size) only — never the thread
  // count — capping per-chunk dW partial memory at ~8 MB while keeping
  // results bit-identical.
  const std::int64_t dw_bytes =
      static_cast<std::int64_t>(w_.numel() + (has_bias_ ? out_c_ : 0)) * 4;
  const std::int64_t mem_cap = std::max<std::int64_t>(
      1, (std::int64_t{8} << 20) / std::max<std::int64_t>(1, dw_bytes));
  return std::min(ComputeContext::chunk_count(batch, /*grain=*/1), mem_cap);
}

Shape Conv2d::plan_forward(PlanBuilder& builder, const Shape& input) {
  const std::int32_t step = builder.tick();
  plan_fwd_col_ = kNoTensor;
  if (lowering(input, kernels::ConvPass::kForward) ==
      kernels::ConvLowering::kIm2col) {
    const kernels::Conv2dGeom g = geom(input);
    const std::int64_t chunks = ComputeContext::chunk_count(input[0], 1);
    plan_fwd_col_ = builder.scratch(chunks * g.kdim() * g.spatial(), step);
  }
  return output_shape(input);
}

void Conv2d::plan_backward(PlanBuilder& builder, const Shape& input) {
  const std::int32_t step = builder.tick();
  const kernels::Conv2dGeom g = geom(input);
  const std::int64_t chunks = backward_chunks(input[0]);
  plan_bwd_dw_ = builder.scratch(chunks * w_.numel(), step);
  plan_bwd_db_ =
      has_bias_ ? builder.scratch(chunks * out_c_, step) : kNoTensor;
  plan_bwd_col_ = kNoTensor;
  plan_bwd_dcol_ = kNoTensor;
  plan_bwd_dcol_block_ = kNoTensor;
  switch (lowering(input, kernels::ConvPass::kBackward)) {
    case kernels::ConvLowering::kIm2col:
      plan_bwd_col_ = builder.scratch(chunks * g.kdim() * g.spatial(), step);
      plan_bwd_dcol_ = builder.scratch(chunks * g.kdim() * g.spatial(), step);
      break;
    case kernels::ConvLowering::kFused:
      plan_bwd_dcol_block_ = builder.scratch(
          chunks * kernels::conv2d_dcol_block_rows(g) * g.spatial(), step);
      break;
    case kernels::ConvLowering::kGemm:
      break;
  }
}

void Conv2d::do_forward(const Tensor& x, Tensor& y, bool /*training*/,
                        const ComputeContext& ctx, PlanContext& pc) {
  const kernels::Conv2dGeom geo = geom(x.shape());
  y.resize(output_shape(x.shape()));
  const std::int64_t batch = x.shape()[0];
  const std::int64_t spatial = geo.spatial();

  const kernels::ConvLowering low =
      lowering(x.shape(), kernels::ConvPass::kForward);
  if (low == kernels::ConvLowering::kFused) {
    kernels::conv2d_forward_direct(ctx, x.data(), w_.data(),
                                   has_bias_ ? b_.data() : nullptr, y.data(),
                                   batch, geo);
    return;
  }
  if (low == kernels::ConvLowering::kGemm) {
    // 1x1 stride-1 unpadded: the conv IS a GEMM on the input plane — no
    // gather at all. Bit-identical to the im2col path (whose col buffer
    // equals the input slice bytewise), so this needs no separate oracle.
    ctx.for_chunks(
        batch, /*grain=*/1,
        [&](std::int64_t /*c*/, std::int64_t lo, std::int64_t hi) {
          for (std::int64_t n = lo; n < hi; ++n) {
            sgemm(ctx, Trans::kNo, Trans::kNo, out_c_, spatial, in_c_, 1.0f,
                  w_.data(), in_c_, x.data() + n * in_c_ * spatial, spatial,
                  0.0f, y.data() + n * out_c_ * spatial, spatial);
            if (has_bias_) {
              for (std::int64_t oc = 0; oc < out_c_; ++oc) {
                float* dst = y.data() + (n * out_c_ + oc) * spatial;
                const float bv = b_[oc];
                for (std::int64_t s = 0; s < spatial; ++s) dst[s] += bv;
              }
            }
          }
        });
    return;
  }

  // Batch-parallel with per-chunk im2col scratch; each image's output rows
  // are disjoint, so no reduction is needed. The inner sgemm runs inline
  // (nested region). The chunk-strided scratch block is requested up front
  // so worker threads never allocate.
  const std::int64_t col_elems = geo.kdim() * spatial;
  const std::int64_t in_plane = in_c_ * geo.h * geo.w;
  const std::int64_t chunks = ComputeContext::chunk_count(batch, /*grain=*/1);
  const std::span<float> cols = pc.floats(plan_fwd_col_, chunks * col_elems);
  ctx.for_chunks(
      batch, /*grain=*/1,
      [&](std::int64_t c, std::int64_t lo, std::int64_t hi) {
        for (std::int64_t n = lo; n < hi; ++n) {
          kernels::conv2d_forward_im2col(
              ctx, x.data() + n * in_plane, w_.data(),
              has_bias_ ? b_.data() : nullptr,
              y.data() + n * out_c_ * spatial, cols.data() + c * col_elems,
              groups_, geo);
        }
      });
}

void Conv2d::do_backward(const Tensor& x, const Tensor& /*y*/,
                         const Tensor& dy, Tensor& dx,
                         const ComputeContext& ctx, PlanContext& pc) {
  const kernels::Conv2dGeom geo = geom(x.shape());
  const std::int64_t batch = x.shape()[0];
  const std::int64_t spatial = geo.spatial();
  const std::int64_t in_plane = in_c_ * geo.h * geo.w;

  dx.resize(x.shape());
  dx.zero();

  // dx rows are disjoint per image, but dW/db are reductions over the batch:
  // each chunk accumulates into its own slice of a chunk-strided partial
  // block, and the slices are folded into dw_/db_ in fixed chunk order
  // afterwards (see backward_chunks for the determinism/memory cap).
  const std::int64_t chunks = backward_chunks(batch);
  if (chunks <= 0) return;

  const std::int64_t wn = w_.numel();
  const std::span<float> dw_parts = pc.floats(plan_bwd_dw_, chunks * wn);
  const std::span<float> db_parts =
      has_bias_ ? pc.floats(plan_bwd_db_, chunks * out_c_) : std::span<float>{};

  // Lowering-specific scratch, all requested before the region:
  //   kGemm    none — the column matrix is the input slice and dcol is dx
  //            itself (col2im adds each dcol element once onto zero);
  //   kFused   one L2-sized dcol row block per chunk, plus Wᵀ packed once
  //            on this thread;
  //   kIm2col  whole col and dcol matrices per chunk.
  const kernels::ConvLowering low =
      lowering(x.shape(), kernels::ConvPass::kBackward);
  std::int64_t col_elems = 0;
  std::int64_t dcol_elems = 0;
  std::span<float> cols, dcols;
  const float* wt = nullptr;
  if (low == kernels::ConvLowering::kIm2col) {
    col_elems = dcol_elems = geo.kdim() * spatial;
    cols = pc.floats(plan_bwd_col_, chunks * col_elems);
    dcols = pc.floats(plan_bwd_dcol_, chunks * dcol_elems);
  } else if (low == kernels::ConvLowering::kFused) {
    dcol_elems = kernels::conv2d_dcol_block_rows(geo) * spatial;
    dcols = pc.floats(plan_bwd_dcol_block_, chunks * dcol_elems);
    wt = kernels::conv2d_pack_weight_t(w_.data(), geo);
  }

  ctx.for_chunks_n(
      batch, chunks, [&](std::int64_t c, std::int64_t lo, std::int64_t hi) {
        float* dwp = dw_parts.data() + c * wn;
        std::fill_n(dwp, static_cast<std::size_t>(wn), 0.0f);
        float* dbp = nullptr;
        if (has_bias_) {
          dbp = db_parts.data() + c * out_c_;
          std::fill_n(dbp, static_cast<std::size_t>(out_c_), 0.0f);
        }
        float* col = cols.data() + c * col_elems;
        float* dcol = dcols.data() + c * dcol_elems;
        for (std::int64_t n = lo; n < hi; ++n) {
          const float* xn = x.data() + n * in_plane;
          const float* dy_n = dy.data() + n * out_c_ * spatial;
          float* dxn = dx.data() + n * in_plane;
          if (low == kernels::ConvLowering::kGemm) {
            // dW(partial) += dy_n (out_c x spatial) * x_n^T (spatial x in_c)
            sgemm(ctx, Trans::kNo, Trans::kYes, out_c_, in_c_, spatial, 1.0f,
                  dy_n, spatial, xn, spatial, 1.0f, dwp, in_c_);
            // dx_n = W^T (in_c x out_c) * dy_n (out_c x spatial)
            sgemm(ctx, Trans::kYes, Trans::kNo, in_c_, spatial, out_c_, 1.0f,
                  w_.data(), in_c_, dy_n, spatial, 0.0f, dxn, spatial);
          } else if (low == kernels::ConvLowering::kFused) {
            kernels::conv2d_backward_weight_direct(xn, dy_n, dwp, geo);
            kernels::conv2d_backward_data_direct(wt, dy_n, dxn, dcol, geo);
          } else {
            kernels::conv2d_backward_im2col(ctx, xn, dy_n, w_.data(), dwp,
                                            dxn, col, dcol, groups_, geo);
          }
          if (has_bias_) {
            // Each channel's plane sum, kMaxLanes planes per pass.
            for (std::int64_t oc0 = 0; oc0 < out_c_;
                 oc0 += kernels::kMaxLanes) {
              const std::int64_t count =
                  std::min(kernels::kMaxLanes, out_c_ - oc0);
              double sums[kernels::kMaxLanes];
              kernels::plane_sums(dy_n + oc0 * spatial, count, spatial, sums);
              for (std::int64_t i = 0; i < count; ++i) {
                dbp[oc0 + i] += static_cast<float>(sums[i]);
              }
            }
          }
        }
      });

  // Fixed-order combine on the calling thread. Chunks whose range is empty
  // never ran (for_chunks_n skips them), so their slices are dirty — skip
  // them by recomputing the deterministic bounds.
  for (std::int64_t c = 0; c < chunks; ++c) {
    const auto [lo, hi] = ComputeContext::chunk_bounds(batch, chunks, c);
    if (lo >= hi) continue;
    const float* dwp = dw_parts.data() + c * wn;
    for (std::int64_t i = 0; i < wn; ++i) dw_[i] += dwp[i];
    if (has_bias_) {
      const float* dbp = db_parts.data() + c * out_c_;
      for (std::int64_t i = 0; i < out_c_; ++i) db_[i] += dbp[i];
    }
  }
}

std::vector<ParamRef> Conv2d::params() {
  std::vector<ParamRef> p;
  p.push_back({"weight", &w_, &dw_, /*decay=*/true});
  if (has_bias_) p.push_back({"bias", &b_, &db_, /*decay=*/false});
  return p;
}

void Conv2d::init(Rng& rng) {
  he_normal(w_, (in_c_ / groups_) * k_ * k_, rng);
  if (has_bias_) b_.zero();
}

std::int64_t Conv2d::flops(const Shape& input) const {
  const Shape out = output_shape(input);
  // 2 flops (mul+add) per MAC; per image (batch dim excluded).
  return 2 * out_c_ * (in_c_ / groups_) * k_ * k_ * out[2] * out[3];
}

}  // namespace minsgd::nn

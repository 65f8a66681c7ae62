// Direct (im2col-free) convolution drivers.
//
// Lower every pass of an ungrouped convolution through the same packed
// microkernels as gemm_packed, with the im2col gather folded into panel
// packing so the (kdim x spatial) column matrix `col` — and its gradient
// `dcol` — is never materialized per image:
//
//   forward   y_n   = W · col_n          col_n gathered into B panels
//   dW        dW   += dy_n · col_nᵀ      col_nᵀ gathered into B panels
//   dx        dx_n += col2im(Wᵀ · dy_n)  dcol computed in L2-sized row
//                                        blocks, each scatter-added into
//                                        dx_n as soon as it is done
//
// Compared to the im2col path this removes a full write+read pass over a
// kdim x spatial buffer per image and pass (for 3x3 conv, 9x the input).
//
// Every C element sees exactly the operation sequence sgemm's packed path
// would apply to the materialized matrices — alpha = 1 folded into the A
// pack, C zeroed (beta = 0) or accumulated (beta = 1), then `C += acc` once
// per kKC depth block in ascending order — and dx receives col2im's adds in
// ascending (c, ki, kj) row order. So wherever sgemm takes its packed path
// (m·n·k > kSmallGemmFlops) the fused bytes equal the im2col bytes, and
// across ISA paths and thread counts unconditionally.
#pragma once

#include <cstdint>

namespace minsgd {
class ComputeContext;
}

namespace minsgd::kernels {

/// Geometry of one ungrouped 2-D convolution (NCHW input, OIHW weight).
struct Conv2dGeom {
  std::int64_t in_c = 0, h = 0, w = 0;          // input plane
  std::int64_t out_c = 0, out_h = 0, out_w = 0;  // output plane
  std::int64_t k = 0, stride = 0, pad = 0;

  std::int64_t kdim() const { return in_c * k * k; }
  std::int64_t spatial() const { return out_h * out_w; }
};

/// How Conv2d lowers one pass of a convolution.
enum class ConvLowering {
  kIm2col,  // materialized col/dcol + sgemm: the semantic reference
  kGemm,    // 1x1 stride-1 unpadded: the input plane IS the column matrix
  kFused,   // the drivers below: im2col folded into packed-panel gathers
};

enum class ConvPass { kForward, kBackward };

/// The one lowering predicate Conv2d's plan walk and its run share. Grouped
/// convs take kIm2col; 1x1 stride-1 unpadded takes kGemm; every other shape
/// takes kFused where the im2col sgemm would take its packed path
/// (out_c·kdim·spatial > kSmallGemmFlops), so fused and im2col bytes agree.
/// Stride-1 3x3 forward is fused at every size.
ConvLowering conv2d_lowering(const Conv2dGeom& g, std::int64_t groups,
                             ConvPass pass);

/// y = conv(x, w) (+ bias per output channel when bias != nullptr).
/// x is (batch x in_c x h x w), w is (out_c x in_c x k x k) row-major,
/// y is (batch x out_c x out_h x out_w) and is overwritten. Batch-parallel
/// on `ctx` with per-chunk packing scratch; each image is serial within
/// itself, so results are bit-identical for any thread count.
void conv2d_forward_direct(const ComputeContext& ctx, const float* x,
                           const float* w, const float* bias, float* y,
                           std::int64_t batch, const Conv2dGeom& g);

/// dw (out_c x kdim) += dy_n (out_c x spatial) · col(x_n)ᵀ for one image,
/// serially. Per depth block of the spatial axis the dy rows are packed
/// once, and each col_nᵀ panel gathered straight from x_n serves every
/// out_c row tile.
void conv2d_backward_weight_direct(const float* xn, const float* dyn,
                                   float* dw, const Conv2dGeom& g);

/// Packs Wᵀ (kdim x out_c) for conv2d_backward_data_direct into
/// calling-thread scratch and returns it. Call before the batch-parallel
/// region; workers only read the result. Valid until the next call.
const float* conv2d_pack_weight_t(const float* w, const Conv2dGeom& g);

/// Rows of dcol computed per block: a multiple of kMR (or all of kdim),
/// sized so a rows x spatial block stays L2-resident. Shape-only.
std::int64_t conv2d_dcol_block_rows(const Conv2dGeom& g);

/// dx_n += col2im(Wᵀ · dy_n) for one image, serially. `wt` comes from
/// conv2d_pack_weight_t; `dcol` is caller scratch of
/// conv2d_dcol_block_rows(g) * spatial floats (dirty is fine).
void conv2d_backward_data_direct(const float* wt, const float* dyn,
                                 float* dxn, float* dcol,
                                 const Conv2dGeom& g);

/// The im2col lowering of one image of a `groups`-way grouped conv (g
/// describes the whole conv; W is out_c x kdim/groups): y_n = W_g · col_g
/// per group, plus bias per output channel when bias != nullptr. `col` is
/// caller scratch of kdim * spatial floats (dirty is fine); sgemm runs on
/// `ctx`, inline inside a parallel region. The reference every other
/// lowering reproduces, and the lowering grouped and small shapes take.
void conv2d_forward_im2col(const ComputeContext& ctx, const float* xn,
                           const float* w, const float* bias, float* yn,
                           float* col, std::int64_t groups,
                           const Conv2dGeom& g);

/// The im2col backward of one image: dw += dy_g · col_gᵀ and dcol_g =
/// W_gᵀ · dy_g per group, then dx_n += col2im(dcol). `col` and `dcol` are
/// caller scratch of kdim * spatial floats each (dirty is fine). The bias
/// gradient is the caller's.
void conv2d_backward_im2col(const ComputeContext& ctx, const float* xn,
                            const float* dyn, const float* w, float* dw,
                            float* dxn, float* col, float* dcol,
                            std::int64_t groups, const Conv2dGeom& g);

}  // namespace minsgd::kernels

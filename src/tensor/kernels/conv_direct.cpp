#include "tensor/kernels/conv_direct.hpp"

#include <algorithm>
#include <cstring>

#include "core/check.hpp"
#include "tensor/context.hpp"
#include "tensor/gemm.hpp"
#include "tensor/kernels/microkernel.hpp"
#include "tensor/kernels/pack.hpp"

namespace minsgd::kernels {
namespace {

// im2col fused into B packing: gathers the (kc x nc) block of the implicit
// column matrix (rows = (ci, ki, kj) taps, cols = output positions) for one
// image, directly into B-panel layout. For stride 1 the inner gather is a
// unit-stride row copy with border zero-fill.
void pack_b_im2col(const float* xn, const Conv2dGeom& g, std::int64_t p0,
                   std::int64_t j0, std::int64_t kc, std::int64_t nc,
                   float* bp) {
  const std::int64_t ntiles = (nc + kNR - 1) / kNR;
  const std::int64_t padded = ntiles * kNR;
  for (std::int64_t p = 0; p < kc; ++p) {
    const std::int64_t prow = p0 + p;
    const std::int64_t ci = prow / (g.k * g.k);
    const std::int64_t rem = prow % (g.k * g.k);
    const std::int64_t ki = rem / g.k;
    const std::int64_t kj = rem % g.k;
    const float* plane = xn + ci * g.h * g.w;
    std::int64_t jl = 0;
    while (jl < nc) {
      const std::int64_t j = j0 + jl;
      const std::int64_t oh = j / g.out_w;
      const std::int64_t ow = j % g.out_w;
      // Stay within one output row and one kNR micro-panel so the
      // destination is contiguous.
      std::int64_t run = std::min(g.out_w - ow, nc - jl);
      run = std::min(run, kNR - (jl % kNR));
      float* dst = bp + (jl / kNR) * kc * kNR + p * kNR + (jl % kNR);
      const std::int64_t ih = oh * g.stride - g.pad + ki;
      if (ih < 0 || ih >= g.h) {
        for (std::int64_t t = 0; t < run; ++t) dst[t] = 0.0f;
      } else {
        const float* row = plane + ih * g.w;
        if (g.stride == 1) {
          const std::int64_t iw0 = ow - g.pad + kj;
          for (std::int64_t t = 0; t < run; ++t) {
            const std::int64_t iw = iw0 + t;
            dst[t] = (iw >= 0 && iw < g.w) ? row[iw] : 0.0f;
          }
        } else {
          for (std::int64_t t = 0; t < run; ++t) {
            const std::int64_t iw = (ow + t) * g.stride - g.pad + kj;
            dst[t] = (iw >= 0 && iw < g.w) ? row[iw] : 0.0f;
          }
        }
      }
      jl += run;
    }
    for (std::int64_t q = nc; q < padded; ++q) {
      bp[(q / kNR) * kc * kNR + p * kNR + (q % kNR)] = 0.0f;
    }
  }
}

// The transposed gather for dW: the (kc x nc) block of colᵀ starting at
// output position s0 (depth) and tap row r0 (lanes), in B-panel layout.
// Each lane walks its tap's input row along the output row, so the x reads
// stay contiguous for stride 1; the panel (kc x kNR per micro-panel) stays
// L1-resident while its lanes fill in.
void pack_bt_im2col(const float* xn, const Conv2dGeom& g, std::int64_t s0,
                    std::int64_t r0, std::int64_t kc, std::int64_t nc,
                    float* bp) {
  const std::int64_t ntiles = (nc + kNR - 1) / kNR;
  for (std::int64_t jt = 0; jt < ntiles; ++jt) {
    float* tile = bp + jt * kc * kNR;
    const std::int64_t nr = std::min(kNR, nc - jt * kNR);
    for (std::int64_t q = 0; q < nr; ++q) {
      const std::int64_t row = r0 + jt * kNR + q;
      const std::int64_t ci = row / (g.k * g.k);
      const std::int64_t ki = (row % (g.k * g.k)) / g.k;
      const std::int64_t kj = row % g.k;
      const float* plane = xn + ci * g.h * g.w;
      std::int64_t p = 0;
      while (p < kc) {
        const std::int64_t s = s0 + p;
        const std::int64_t oh = s / g.out_w;
        const std::int64_t ow = s % g.out_w;
        const std::int64_t run = std::min(g.out_w - ow, kc - p);
        float* dst = tile + p * kNR + q;
        const std::int64_t ih = oh * g.stride - g.pad + ki;
        if (ih < 0 || ih >= g.h) {
          for (std::int64_t t = 0; t < run; ++t) dst[t * kNR] = 0.0f;
        } else {
          const float* src = plane + ih * g.w;
          for (std::int64_t t = 0; t < run; ++t) {
            const std::int64_t iw = (ow + t) * g.stride - g.pad + kj;
            dst[t * kNR] = (iw >= 0 && iw < g.w) ? src[iw] : 0.0f;
          }
        }
        p += run;
      }
    }
    for (std::int64_t p = 0; p < kc; ++p) {
      for (std::int64_t q = nr; q < kNR; ++q) tile[p * kNR + q] = 0.0f;
    }
  }
}

// Materializes col(x_n) (kdim x spatial, rows in (c, ki, kj) order) for
// the im2col lowering. Every element is written (padding as zeros).
void im2col(const float* xn, float* col, const Conv2dGeom& g) {
  const std::int64_t spatial = g.spatial();
  for (std::int64_t row = 0; row < g.kdim(); ++row) {
    const std::int64_t c = row / (g.k * g.k);
    const std::int64_t ki = (row % (g.k * g.k)) / g.k;
    const std::int64_t kj = row % g.k;
    const float* plane = xn + c * g.h * g.w;
    float* dst = col + row * spatial;
    for (std::int64_t oh = 0; oh < g.out_h; ++oh) {
      const std::int64_t ih = oh * g.stride - g.pad + ki;
      if (ih < 0 || ih >= g.h) {
        std::memset(dst + oh * g.out_w, 0,
                    static_cast<std::size_t>(g.out_w) * sizeof(float));
        continue;
      }
      for (std::int64_t ow = 0; ow < g.out_w; ++ow) {
        const std::int64_t iw = ow * g.stride - g.pad + kj;
        dst[oh * g.out_w + ow] =
            (iw >= 0 && iw < g.w) ? plane[ih * g.w + iw] : 0.0f;
      }
    }
  }
}

// dx_n += col2im of dcol rows [r0, r0 + rows): `dcol` holds those rows
// (rows x spatial). Adds run in ascending row order, then output position,
// so a blocked caller (the fused dx) reproduces one whole-matrix call (the
// im2col lowering) bit for bit.
void col2im_add(const float* dcol, std::int64_t r0, std::int64_t rows,
                float* dxn, const Conv2dGeom& g) {
  const std::int64_t spatial = g.spatial();
  for (std::int64_t row = r0; row < r0 + rows; ++row) {
    const std::int64_t c = row / (g.k * g.k);
    const std::int64_t ki = (row % (g.k * g.k)) / g.k;
    const std::int64_t kj = row % g.k;
    float* plane = dxn + c * g.h * g.w;
    const float* src = dcol + (row - r0) * spatial;
    for (std::int64_t oh = 0; oh < g.out_h; ++oh) {
      const std::int64_t ih = oh * g.stride - g.pad + ki;
      if (ih < 0 || ih >= g.h) continue;
      for (std::int64_t ow = 0; ow < g.out_w; ++ow) {
        const std::int64_t iw = ow * g.stride - g.pad + kj;
        if (iw >= 0 && iw < g.w) plane[ih * g.w + iw] += src[oh * g.out_w + ow];
      }
    }
  }
}

// Target footprint of one dcol row block: kKC x kNC floats (512 KiB), the
// size of a gemm_packed B panel, leaving room in a 1-2 MiB L2 for the
// packed dy panels it is multiplied against. Blocks never shrink below
// kMinDcolTiles row tiles: on large planes (the 7x7 stem's 112x112) fewer
// rows would re-stream the whole packed dy once per handful of rows.
constexpr std::int64_t kDcolBlockFloats = kKC * kNC;
constexpr std::int64_t kMinDcolTiles = 4;

}  // namespace

ConvLowering conv2d_lowering(const Conv2dGeom& g, std::int64_t groups,
                             ConvPass pass) {
  if (groups != 1) return ConvLowering::kIm2col;
  if (g.k == 1 && g.stride == 1 && g.pad == 0) return ConvLowering::kGemm;
  if (pass == ConvPass::kForward && g.k == 3 && g.stride == 1) {
    return ConvLowering::kFused;
  }
  return g.out_c * g.kdim() * g.spatial() > kSmallGemmFlops
             ? ConvLowering::kFused
             : ConvLowering::kIm2col;
}

void conv2d_forward_direct(const ComputeContext& ctx, const float* x,
                           const float* w, const float* bias, float* y,
                           std::int64_t batch, const Conv2dGeom& g) {
  MINSGD_CHECK(g.in_c > 0 && g.out_c > 0 && g.k > 0 && g.stride > 0 &&
                   g.pad >= 0 && g.out_h > 0 && g.out_w > 0,
               "conv2d_forward_direct: bad geometry");
  if (batch <= 0) return;
  const std::int64_t kdim = g.kdim();
  const std::int64_t spatial = g.spatial();
  const std::int64_t in_plane = g.in_c * g.h * g.w;
  const std::int64_t out_plane = g.out_c * spatial;
  const MicrokernelFn ukr = microkernel_for(active());

  // The weight matrix (out_c x kdim) is shared by every image: pack it once
  // into A-panel layout for all kc blocks. Block p0 starts at
  // mtiles*kMR*p0 because every block's footprint is proportional to kc.
  // The packed weights live in calling-thread scratch: written here, before
  // the parallel region starts, and read-only by every worker inside it
  // (region start/join orders the accesses).
  const std::int64_t mtiles = (g.out_c + kMR - 1) / kMR;
  float* const wpack = pack_scratch(
      kPackScratchConvW, static_cast<std::size_t>(mtiles * kMR * kdim));
  for (std::int64_t p0 = 0; p0 < kdim; p0 += kKC) {
    const std::int64_t kc = std::min(kKC, kdim - p0);
    pack_a_panel(w, kdim, Trans::kNo, 0, p0, g.out_c, kc, /*alpha=*/1.0f,
                 wpack + mtiles * kMR * p0);
  }

  // Batch-parallel with per-chunk packing scratch; the inner blocked loops
  // are serial per image, so chunk geometry f(batch, 1) is the only
  // parallel dimension.
  ctx.for_chunks(
      batch, /*grain=*/1,
      [&](std::int64_t /*c*/, std::int64_t lo, std::int64_t hi) {
        float* const bpack = pack_scratch(
            kPackScratchConvB, static_cast<std::size_t>(kKC * kNC));
        for (std::int64_t n = lo; n < hi; ++n) {
          const float* xn = x + n * in_plane;
          float* yn = y + n * out_plane;
          std::memset(yn, 0,
                      static_cast<std::size_t>(out_plane) * sizeof(float));
          for (std::int64_t p0 = 0; p0 < kdim; p0 += kKC) {
            const std::int64_t kc = std::min(kKC, kdim - p0);
            const float* apanel = wpack + mtiles * kMR * p0;
            for (std::int64_t j0 = 0; j0 < spatial; j0 += kNC) {
              const std::int64_t nc = std::min(kNC, spatial - j0);
              const std::int64_t ntiles = (nc + kNR - 1) / kNR;
              pack_b_im2col(xn, g, p0, j0, kc, nc, bpack);
              for (std::int64_t jt = 0; jt < ntiles; ++jt) {
                const std::int64_t nr = std::min(kNR, nc - jt * kNR);
                const float* btile = bpack + jt * kc * kNR;
                for (std::int64_t it = 0; it < mtiles; ++it) {
                  const std::int64_t mr = std::min(kMR, g.out_c - it * kMR);
                  ukr(kc, apanel + it * kc * kMR, btile,
                      yn + it * kMR * spatial + j0 + jt * kNR, spatial, mr,
                      nr);
                }
              }
            }
          }
          if (bias != nullptr) {
            for (std::int64_t oc = 0; oc < g.out_c; ++oc) {
              float* dst = yn + oc * spatial;
              const float bv = bias[oc];
              for (std::int64_t s = 0; s < spatial; ++s) dst[s] += bv;
            }
          }
        }
      });
}

void conv2d_backward_weight_direct(const float* xn, const float* dyn,
                                   float* dw, const Conv2dGeom& g) {
  const std::int64_t kdim = g.kdim();
  const std::int64_t spatial = g.spatial();
  const MicrokernelFn ukr = microkernel_for(active());
  // m = out_c rows of dy, n = kdim columns of colᵀ, depth = spatial. The
  // whole dy row block is packed once per depth block, so each gathered
  // colᵀ panel is reused across every out_c row tile.
  const std::int64_t mtiles = (g.out_c + kMR - 1) / kMR;
  float* const apack = pack_scratch(
      kPackScratchConvDy,
      static_cast<std::size_t>(mtiles * kMR * std::min(kKC, spatial)));
  float* const bpack =
      pack_scratch(kPackScratchConvB, static_cast<std::size_t>(kKC * kNC));
  for (std::int64_t p0 = 0; p0 < spatial; p0 += kKC) {
    const std::int64_t kc = std::min(kKC, spatial - p0);
    pack_a_panel(dyn, spatial, Trans::kNo, 0, p0, g.out_c, kc, /*alpha=*/1.0f,
                 apack);
    for (std::int64_t j0 = 0; j0 < kdim; j0 += kNC) {
      const std::int64_t nc = std::min(kNC, kdim - j0);
      const std::int64_t ntiles = (nc + kNR - 1) / kNR;
      pack_bt_im2col(xn, g, p0, j0, kc, nc, bpack);
      for (std::int64_t jt = 0; jt < ntiles; ++jt) {
        const std::int64_t nr = std::min(kNR, nc - jt * kNR);
        const float* btile = bpack + jt * kc * kNR;
        for (std::int64_t it = 0; it < mtiles; ++it) {
          const std::int64_t mr = std::min(kMR, g.out_c - it * kMR);
          ukr(kc, apack + it * kc * kMR, btile,
              dw + it * kMR * kdim + j0 + jt * kNR, kdim, mr, nr);
        }
      }
    }
  }
}

const float* conv2d_pack_weight_t(const float* w, const Conv2dGeom& g) {
  // Wᵀ as the A operand of dcol = Wᵀ · dy: m = kdim, depth = out_c. Depth
  // block p0 starts at mtiles*kMR*p0 (footprints are proportional to kc).
  const std::int64_t kdim = g.kdim();
  const std::int64_t mtiles = (kdim + kMR - 1) / kMR;
  float* const wt = pack_scratch(
      kPackScratchConvW, static_cast<std::size_t>(mtiles * kMR * g.out_c));
  for (std::int64_t p0 = 0; p0 < g.out_c; p0 += kKC) {
    const std::int64_t kc = std::min(kKC, g.out_c - p0);
    pack_a_panel(w, kdim, Trans::kYes, 0, p0, kdim, kc, /*alpha=*/1.0f,
                 wt + mtiles * kMR * p0);
  }
  return wt;
}

std::int64_t conv2d_dcol_block_rows(const Conv2dGeom& g) {
  const std::int64_t fit = kDcolBlockFloats / g.spatial() / kMR * kMR;
  return std::min(g.kdim(), std::max(kMinDcolTiles * kMR, fit));
}

void conv2d_backward_data_direct(const float* wt, const float* dyn,
                                 float* dxn, float* dcol,
                                 const Conv2dGeom& g) {
  const std::int64_t kdim = g.kdim();
  const std::int64_t spatial = g.spatial();
  const MicrokernelFn ukr = microkernel_for(active());
  // dy_n (out_c x spatial) as the B operand, packed once for the image:
  // block (p0, j0) lives at p0*sp_pad + kc*j0, because every j0 block but
  // the last is a whole number of kNR lanes wide.
  const std::int64_t sp_pad = (spatial + kNR - 1) / kNR * kNR;
  float* const dypack = pack_scratch(
      kPackScratchConvDy, static_cast<std::size_t>(g.out_c * sp_pad));
  for (std::int64_t p0 = 0; p0 < g.out_c; p0 += kKC) {
    const std::int64_t kc = std::min(kKC, g.out_c - p0);
    for (std::int64_t j0 = 0; j0 < spatial; j0 += kNC) {
      pack_b_panel(dyn, spatial, Trans::kNo, p0, j0, kc,
                   std::min(kNC, spatial - j0), dypack + p0 * sp_pad + kc * j0);
    }
  }

  // dcol row blocks in ascending order: zero, accumulate each kKC depth
  // block of out_c, then scatter-add into dx_n. Blocks start on a kMR
  // boundary, so their tiles are the packed Wᵀ tiles from r0/kMR on.
  const std::int64_t kmtiles = (kdim + kMR - 1) / kMR;
  const std::int64_t block_rows = conv2d_dcol_block_rows(g);
  for (std::int64_t r0 = 0; r0 < kdim; r0 += block_rows) {
    const std::int64_t rows = std::min(block_rows, kdim - r0);
    const std::int64_t mtiles = (rows + kMR - 1) / kMR;
    const std::int64_t t0 = r0 / kMR;
    std::memset(dcol, 0,
                static_cast<std::size_t>(rows * spatial) * sizeof(float));
    for (std::int64_t p0 = 0; p0 < g.out_c; p0 += kKC) {
      const std::int64_t kc = std::min(kKC, g.out_c - p0);
      const float* apanel = wt + kmtiles * kMR * p0;
      for (std::int64_t j0 = 0; j0 < spatial; j0 += kNC) {
        const std::int64_t nc = std::min(kNC, spatial - j0);
        const std::int64_t ntiles = (nc + kNR - 1) / kNR;
        const float* bpanel = dypack + p0 * sp_pad + kc * j0;
        for (std::int64_t jt = 0; jt < ntiles; ++jt) {
          const std::int64_t nr = std::min(kNR, nc - jt * kNR);
          const float* btile = bpanel + jt * kc * kNR;
          for (std::int64_t it = 0; it < mtiles; ++it) {
            const std::int64_t mr = std::min(kMR, rows - it * kMR);
            ukr(kc, apanel + (t0 + it) * kc * kMR, btile,
                dcol + it * kMR * spatial + j0 + jt * kNR, spatial, mr, nr);
          }
        }
      }
    }
    col2im_add(dcol, r0, rows, dxn, g);
  }
}

void conv2d_forward_im2col(const ComputeContext& ctx, const float* xn,
                           const float* w, const float* bias, float* yn,
                           float* col, std::int64_t groups,
                           const Conv2dGeom& g) {
  const std::int64_t spatial = g.spatial();
  const std::int64_t kdim = g.kdim() / groups;  // per-group depth
  const std::int64_t g_out = g.out_c / groups;
  im2col(xn, col, g);
  for (std::int64_t gi = 0; gi < groups; ++gi) {
    // y[group gi] = W_gi (g_out x kdim) * col_gi (kdim x spatial)
    sgemm(ctx, Trans::kNo, Trans::kNo, g_out, spatial, kdim, 1.0f,
          w + gi * g_out * kdim, kdim, col + gi * kdim * spatial, spatial,
          0.0f, yn + gi * g_out * spatial, spatial);
  }
  if (bias != nullptr) {
    for (std::int64_t oc = 0; oc < g.out_c; ++oc) {
      float* dst = yn + oc * spatial;
      const float bv = bias[oc];
      for (std::int64_t s = 0; s < spatial; ++s) dst[s] += bv;
    }
  }
}

void conv2d_backward_im2col(const ComputeContext& ctx, const float* xn,
                            const float* dyn, const float* w, float* dw,
                            float* dxn, float* col, float* dcol,
                            std::int64_t groups, const Conv2dGeom& g) {
  const std::int64_t spatial = g.spatial();
  const std::int64_t kdim = g.kdim() / groups;  // per-group depth
  const std::int64_t g_out = g.out_c / groups;
  im2col(xn, col, g);
  for (std::int64_t gi = 0; gi < groups; ++gi) {
    const float* dy_g = dyn + gi * g_out * spatial;
    // dW_gi += dy_gi (g_out x spatial) * col_giᵀ (spatial x kdim)
    sgemm(ctx, Trans::kNo, Trans::kYes, g_out, kdim, spatial, 1.0f, dy_g,
          spatial, col + gi * kdim * spatial, spatial, 1.0f,
          dw + gi * g_out * kdim, kdim);
    // dcol_gi = W_giᵀ (kdim x g_out) * dy_gi (g_out x spatial)
    sgemm(ctx, Trans::kYes, Trans::kNo, kdim, spatial, g_out, 1.0f,
          w + gi * g_out * kdim, kdim, dy_g, spatial, 0.0f,
          dcol + gi * kdim * spatial, spatial);
  }
  col2im_add(dcol, 0, g.kdim(), dxn, g);
}

}  // namespace minsgd::kernels

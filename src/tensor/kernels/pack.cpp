#include "tensor/kernels/pack.hpp"

#include <algorithm>
#include <vector>

#include "tensor/kernels/microkernel.hpp"

namespace minsgd::kernels {

float* pack_scratch(int slot, std::size_t elems) {
  // minsgd-analyze: allow(hot-path-alloc): grow-only thread_local scratch
  // shared by gemm_packed, conv2d_forward_direct, conv2d_pack_weight_t,
  // conv2d_backward_weight_direct and conv2d_backward_data_direct; it
  // reaches steady-state size on the first call and never reallocates on
  // the planned hot path.
  static thread_local std::vector<float> buffers[kPackScratchSlots];
  std::vector<float>& buf = buffers[slot];
  if (buf.size() < elems) buf.resize(elems);
  return buf.data();
}

namespace {

// Fills lanes [from, lanes) of every depth row of a p-major micro-panel.
void zero_lanes(float* tile, std::int64_t kc, std::int64_t lanes,
                std::int64_t from) {
  for (std::int64_t p = 0; p < kc; ++p) {
    for (std::int64_t l = from; l < lanes; ++l) tile[p * lanes + l] = 0.0f;
  }
}

}  // namespace

// An untransposed A (op(A) rows contiguous in depth) is read one
// contiguous row per tile lane and scattered into the L1-resident
// micro-panel, instead of gathering one element from each of kMR strided
// rows per depth step.
void pack_a_panel(const float* a, std::int64_t lda, Trans ta, std::int64_t i0,
                  std::int64_t p0, std::int64_t mc, std::int64_t kc,
                  float alpha, float* ap) {
  const std::int64_t mtiles = (mc + kMR - 1) / kMR;
  for (std::int64_t it = 0; it < mtiles; ++it) {
    float* tile = ap + it * kc * kMR;
    const std::int64_t row0 = i0 + it * kMR;
    const std::int64_t mr = std::min(kMR, mc - it * kMR);
    if (ta == Trans::kNo) {
      for (std::int64_t r = 0; r < mr; ++r) {
        const float* src = a + (row0 + r) * lda + p0;
        for (std::int64_t p = 0; p < kc; ++p) tile[p * kMR + r] = alpha * src[p];
      }
    } else {
      for (std::int64_t p = 0; p < kc; ++p) {
        const float* src = a + (p0 + p) * lda + row0;
        for (std::int64_t r = 0; r < mr; ++r) tile[p * kMR + r] = alpha * src[r];
      }
    }
    zero_lanes(tile, kc, kMR, mr);
  }
}

void pack_b_panel(const float* b, std::int64_t ldb, Trans tb, std::int64_t p0,
                  std::int64_t j0, std::int64_t kc, std::int64_t nc,
                  float* bp) {
  const std::int64_t ntiles = (nc + kNR - 1) / kNR;
  for (std::int64_t jt = 0; jt < ntiles; ++jt) {
    float* tile = bp + jt * kc * kNR;
    const std::int64_t col0 = j0 + jt * kNR;
    const std::int64_t nr = std::min(kNR, nc - jt * kNR);
    if (tb == Trans::kNo) {
      for (std::int64_t p = 0; p < kc; ++p) {
        const float* src = b + (p0 + p) * ldb + col0;
        for (std::int64_t q = 0; q < nr; ++q) tile[p * kNR + q] = src[q];
      }
    } else {
      // One strided element per lane and depth step: scattering a
      // contiguous run per lane into the panel instead, as A does,
      // measured ~1.6x slower for B's 16 lanes on an AVX-512 Xeon.
      for (std::int64_t p = 0; p < kc; ++p) {
        const float* src = b + col0 * ldb + p0 + p;
        for (std::int64_t q = 0; q < nr; ++q) tile[p * kNR + q] = src[q * ldb];
      }
    }
    zero_lanes(tile, kc, kNR, nr);
  }
}

}  // namespace minsgd::kernels

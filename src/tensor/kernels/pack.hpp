// Panel packing for the blocked microkernel drivers.
//
// Packed layouts (the only layouts the microkernels read):
//
//   A panel: ceil(mc/kMR) micro-panels of kc x kMR, p-major — element
//            (row r, depth p) of micro-panel `it` lives at
//            ap[it*kc*kMR + p*kMR + r]. Values are pre-scaled by alpha at
//            pack time (one multiply per element, shared by every ISA
//            path); rows past mc are zero-filled so edge tiles run the
//            same full-width accumulate as interior tiles.
//   B panel: ceil(nc/kNR) micro-panels of kc x kNR, p-major — element
//            (depth p, col q) of micro-panel `jt` lives at
//            bp[jt*kc*kNR + p*kNR + q]; columns past nc are zero-filled.
//
// Padding lanes are accumulated by the microkernels but never stored, so
// the zero fill cannot perturb any output element.
#pragma once

#include <cstddef>
#include <cstdint>

#include "tensor/gemm.hpp"

namespace minsgd::kernels {

// Thread-local, grow-only scratch backing packed panels, so the blocked
// drivers never allocate on the planned hot path (hot-path-alloc contract).
// Distinct slots keep concurrent users on one thread from aliasing:
//   kPackScratchA / kPackScratchB  gemm_packed, inside its region
//   kPackScratchConvB              gathered im2col panels, per chunk:
//                                  conv2d_forward_direct (col) and
//                                  conv2d_backward_weight_direct (colᵀ)
//   kPackScratchConvW              one conv call's packed weights: W for
//                                  conv2d_forward_direct, Wᵀ from
//                                  conv2d_pack_weight_t. Packed on the
//                                  calling thread before the region and
//                                  read-only inside it
//   kPackScratchConvDy             one image's packed dy, per chunk: A
//                                  panels in conv2d_backward_weight_direct,
//                                  then B panels for the whole image in
//                                  conv2d_backward_data_direct (the two
//                                  uses never overlap)
// Buffers reach steady-state size after the first block and are reused dirty;
// that is bitwise-safe because every pack fully overwrites the region the
// microkernels read, zero-filling edge lanes (see layout notes above).
inline constexpr int kPackScratchA = 0;
inline constexpr int kPackScratchB = 1;
inline constexpr int kPackScratchConvB = 2;
inline constexpr int kPackScratchConvW = 3;
inline constexpr int kPackScratchConvDy = 4;
inline constexpr int kPackScratchSlots = 5;

/// Returns this thread's scratch buffer for `slot`, grown to at least
/// `elems` floats. The pointer stays valid until the next pack_scratch call
/// on the same thread and slot with a larger `elems`.
float* pack_scratch(int slot, std::size_t elems);

/// Packs the (mc x kc) block of op(A) starting at logical row i0, depth p0
/// into A-panel layout, scaling every element by alpha.
void pack_a_panel(const float* a, std::int64_t lda, Trans ta, std::int64_t i0,
                  std::int64_t p0, std::int64_t mc, std::int64_t kc,
                  float alpha, float* ap);

/// Packs the (kc x nc) block of op(B) starting at depth p0, logical column
/// j0 into B-panel layout.
void pack_b_panel(const float* b, std::int64_t ldb, Trans tb, std::int64_t p0,
                  std::int64_t j0, std::int64_t kc, std::int64_t nc,
                  float* bp);

}  // namespace minsgd::kernels

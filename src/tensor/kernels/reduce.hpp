// Lane-interleaved chunk reductions: the double-precision partials behind
// dot/sum/l2_norm(ctx, ...) and LARS's one-pass ||w|| / ||g|| pair.
//
// A chunked reduction (context.hpp rule 2) keeps one partial per chunk, and
// each partial adds its chunk's terms in ascending order: one serial add
// chain, bound on the add latency rather than on memory. These kernels
// compute several such sums in one pass instead. Each sum is a lane (a
// chunk, or a channel plane for the conv bias gradient and global average
// pooling), and every step adds the next term of each lane into that
// lane's own double accumulator. No lane's order changes, so each sum is
// bit-identical to the serial chain for any grouping of lanes into passes
// and any thread split; only independent chains overlap.
//
// The terms are exact in double: a float is exact in double, and so is a
// float x float product (24 + 24 significand bits fit in 53). Only the add
// rounds, so a fused multiply-add and a multiply then add give the same
// bits, and every arm matches the plain C reference.
//
// Arms: portable C (the reference) and AVX-512F (blocks of eight lanes,
// sixteen steps per iteration transposed in registers, one zmm of double
// accumulators per block). AVX2 and NEON run the portable arm.
#pragma once

#include <cstdint>

namespace minsgd::kernels {

/// What a lane accumulates, per element i of its range.
enum class LaneTerm {
  kSum,         // x[i]
  kDot,         // x[i] * y[i]
  kSquarePair,  // x[i] * x[i] into px, and y[i] * y[i] into py
};

/// Most lanes one call carries (ComputeContext::kMaxChunks).
inline constexpr std::int64_t kMaxLanes = 16;

/// For each lane i < count (1 <= count <= kMaxLanes): px[i] = the serial
/// ascending sum, from +0.0, of lane i's terms over elements
/// [start[i], start[i] + len[i]) of x (and of y). `y` is read by kDot and
/// kSquarePair only; `py` is written by kSquarePair only.
void lane_partials(LaneTerm term, const float* x, const float* y,
                   const std::int64_t* start, const std::int64_t* len,
                   std::int64_t count, double* px, double* py);

/// sums[p] = the serial ascending double sum of plane p, for `planes`
/// consecutive planes of `plane` floats each starting at x (1 <= planes <=
/// kMaxLanes): lane_partials with one kSum lane per plane.
void plane_sums(const float* x, std::int64_t planes, std::int64_t plane,
                double* sums);

}  // namespace minsgd::kernels

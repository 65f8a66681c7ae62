// Order-sensitive test data for the lane-interleaved reductions.
//
// A layer whose per-channel sums are reduced lane-interleaved (Conv2d's
// bias gradient, GlobalAvgPool) must keep each channel's serial addition
// order. Sums of ordinary random data are often exact in double, or round
// back to the same float, so a reordered add can go unseen. This data
// makes the order visible in the float result.
#pragma once

#include <cstdint>

#include "tensor/rng.hpp"

namespace minsgd::testing {

/// Order-sensitive plane data: unit normals, with +2^40 at one position
/// and -2^40 at a later one. While the pair is open every add rounds to a
/// multiple of 2^-12, far above a float's resolution at the small final
/// sum, so moving any add into, out of or within the open window changes
/// the rounded float result.
inline void fill_order_sensitive(float* plane, std::int64_t len, Rng& rng) {
  for (std::int64_t i = 0; i < len; ++i) {
    plane[i] = static_cast<float>(rng.normal());
  }
  const auto a = static_cast<std::int64_t>(
      rng.uniform_int(static_cast<std::uint64_t>(len / 2)));
  const auto b = a + 1 + static_cast<std::int64_t>(rng.uniform_int(
                             static_cast<std::uint64_t>(len - a - 1)));
  plane[a] = 0x1p40f;
  plane[b] = -0x1p40f;
}

}  // namespace minsgd::testing

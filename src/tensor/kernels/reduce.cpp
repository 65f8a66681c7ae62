// Lane-interleaved chunk reductions (see reduce.hpp for the contract).
//
// This translation unit is compiled with -ffp-contract=off like every
// kernel TU. The terms here are exact, so contraction could not change a
// bit, but the pin keeps the kernels/ directory under one rule.
#include "tensor/kernels/reduce.hpp"

#include <algorithm>

#include "core/check.hpp"
#include "tensor/context.hpp"
#include "tensor/kernels/dispatch.hpp"

#if defined(__x86_64__) || defined(__i386__)
// GCC 12's AVX-512 intrinsics pass an undefined vector as the unused
// merge operand of their all-lanes masked builtins, which -Wmaybe-uninitialized
// reports at every inlined use; the value is never read.
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#include <immintrin.h>
#endif

namespace minsgd::kernels {
namespace {

constexpr std::int64_t kLanes = kMaxLanes;
static_assert(kLanes == 16, "the AVX-512 arm holds 16 lanes in two blocks");
static_assert(kMaxLanes == ComputeContext::kMaxChunks,
              "one pass carries every chunk of a reduction");

/// Adds element k's term of one lane into *ax (and *ay).
template <LaneTerm T>
inline void add_term(const float* x, const float* y, std::int64_t k,
                     double* ax, double* ay) {
  const double xv = x[k];
  if constexpr (T == LaneTerm::kSum) {
    *ax += xv;
  } else if constexpr (T == LaneTerm::kDot) {
    *ax += xv * static_cast<double>(y[k]);
  } else {
    const double yv = y[k];
    *ax += xv * xv;
    *ay += yv * yv;
  }
}

/// Lane i starts at x + start[i]; steps j in [from, to) of every lane, one
/// term per lane per step.
template <LaneTerm T>
void lanes_portable(const float* x, const float* y, const std::int64_t* start,
                    std::int64_t count, std::int64_t from, std::int64_t to,
                    double* ax, double* ay) {
  for (std::int64_t j = from; j < to; ++j) {
    for (std::int64_t i = 0; i < count; ++i) {
      add_term<T>(x, y, start[i] + j, ax + i, ay + i);
    }
  }
}

#if defined(__x86_64__) || defined(__i386__)

/// In-register 8x8 transpose: on entry d[i] is row i, on exit d[k] is
/// column k (element k of every row, in row order).
__attribute__((target("avx512f"))) inline void transpose8(__m512d d[8]) {
  __m512d t[8], u[8];
  for (int i = 0; i < 4; ++i) {
    t[2 * i] = _mm512_unpacklo_pd(d[2 * i], d[2 * i + 1]);
    t[2 * i + 1] = _mm512_unpackhi_pd(d[2 * i], d[2 * i + 1]);
  }
  for (int i = 0; i < 2; ++i) {
    u[i] = _mm512_shuffle_f64x2(t[i], t[2 + i], 0x88);
    u[2 + i] = _mm512_shuffle_f64x2(t[i], t[2 + i], 0xDD);
    u[4 + i] = _mm512_shuffle_f64x2(t[4 + i], t[6 + i], 0x88);
    u[6 + i] = _mm512_shuffle_f64x2(t[4 + i], t[6 + i], 0xDD);
  }
  for (int i = 0; i < 4; ++i) {
    d[i] = _mm512_shuffle_f64x2(u[i], u[4 + i], 0x88);
    d[4 + i] = _mm512_shuffle_f64x2(u[i], u[4 + i], 0xDD);
  }
}

/// Software prefetch distance in floats (16 cache lines per lane). With 16
/// lanes per tensor the hardware prefetcher tracks too few streams, and
/// ranks sharing memory bandwidth then stall on every row. On a 4-vCPU
/// AVX-512 (Sapphire Rapids) VM, four concurrent ResNet-50 norm passes
/// took ~17 ms each with it and ~22 ms without.
/// A prefetch past the end of a lane never faults.
constexpr std::int64_t kPrefetch = 256;

/// Steps [j, j + 16) of the eight lanes whose rows start at row[0..7],
/// widened to double and transposed: lo[k][i] is element j + k of lane i,
/// hi[k][i] element j + 8 + k. Each row is one 64-byte load, so a cache
/// line is consumed whole as soon as it arrives (lanes a power-of-two
/// stride apart share an L1 set and evict each other).
__attribute__((target("avx512f"))) inline void load_steps(
    const float* const* row, std::int64_t j, __m512d lo[8], __m512d hi[8]) {
  for (int i = 0; i < 8; ++i) {
    _mm_prefetch(row[i] + j + kPrefetch, _MM_HINT_T0);
    const __m512 v = _mm512_loadu_ps(row[i] + j);
    lo[i] = _mm512_cvtps_pd(_mm512_castps512_ps256(v));
    hi[i] = _mm512_cvtps_pd(_mm256_castpd_ps(
        _mm512_extractf64x4_pd(_mm512_castps_pd(v), 1)));
  }
  transpose8(lo);
  transpose8(hi);
}

/// Adds steps d[0..7] of eight lanes into acc_x (and acc_y), in order.
template <LaneTerm T>
__attribute__((target("avx512f"))) inline void add_steps(
    const __m512d* dx, const __m512d* dy, __m512d& acc_x, __m512d& acc_y) {
  for (int k = 0; k < 8; ++k) {
    if constexpr (T == LaneTerm::kSum) {
      acc_x = _mm512_add_pd(acc_x, dx[k]);
    } else if constexpr (T == LaneTerm::kDot) {
      acc_x = _mm512_add_pd(acc_x, _mm512_mul_pd(dx[k], dy[k]));
    } else {
      acc_x = _mm512_add_pd(acc_x, _mm512_mul_pd(dx[k], dx[k]));
      acc_y = _mm512_add_pd(acc_y, _mm512_mul_pd(dy[k], dy[k]));
    }
  }
}

/// lanes_portable sixteen steps at a time for blocks of eight lanes: each
/// block's steps are transposed in registers so that one vector add
/// advances all eight of its lanes by one step. Rows past `count` re-read
/// the last lane and fill accumulator elements that are never stored.
/// Returns the steps done (a multiple of 16); the caller finishes the rest.
template <LaneTerm T>
__attribute__((target("avx512f"))) std::int64_t lanes_avx512(
    const float* x, const float* y, const std::int64_t* start,
    std::int64_t count, std::int64_t common, double* ax, double* ay) {
  constexpr bool kY = T == LaneTerm::kDot || T == LaneTerm::kSquarePair;
  const float* xrow[kLanes];
  const float* yrow[kLanes];
  for (std::int64_t i = 0; i < kLanes; ++i) {
    const std::int64_t lane = std::min(i, count - 1);
    xrow[i] = x + start[lane];
    yrow[i] = kY ? y + start[lane] : nullptr;
  }
  const std::int64_t blocks = (count + 7) / 8;
  __m512d acc_x[2] = {_mm512_setzero_pd(), _mm512_setzero_pd()};
  __m512d acc_y[2] = {_mm512_setzero_pd(), _mm512_setzero_pd()};
  std::int64_t j = 0;
  for (; j + 16 <= common; j += 16) {
    for (std::int64_t b = 0; b < blocks; ++b) {
      __m512d xlo[8], xhi[8], ylo[8], yhi[8];
      load_steps(xrow + 8 * b, j, xlo, xhi);
      if constexpr (kY) load_steps(yrow + 8 * b, j, ylo, yhi);
      add_steps<T>(xlo, ylo, acc_x[b], acc_y[b]);
      add_steps<T>(xhi, yhi, acc_x[b], acc_y[b]);
    }
  }
  alignas(64) double out_x[kLanes], out_y[kLanes];
  for (int b = 0; b < 2; ++b) {
    _mm512_store_pd(out_x + 8 * b, acc_x[b]);
    _mm512_store_pd(out_y + 8 * b, acc_y[b]);
  }
  std::copy_n(out_x, count, ax);
  std::copy_n(out_y, count, ay);
  return j;
}

#endif  // x86

template <LaneTerm T>
void lanes(const float* x, const float* y, const std::int64_t* start,
           const std::int64_t* len, std::int64_t count, double* ax,
           double* ay) {
  const std::int64_t common = *std::min_element(len, len + count);
  std::int64_t done = 0;
#if defined(__x86_64__) || defined(__i386__)
  // A single lane is one serial chain either way.
  if (count > 1 && active() == Isa::kAvx512) {
    done = lanes_avx512<T>(x, y, start, count, common, ax, ay);
  }
#endif
  // The steps the SIMD arm left (all of them on the portable arm), then
  // each lane's elements past the common length, still in order.
  lanes_portable<T>(x, y, start, count, done, common, ax, ay);
  for (std::int64_t i = 0; i < count; ++i) {
    for (std::int64_t j = common; j < len[i]; ++j) {
      add_term<T>(x, y, start[i] + j, ax + i, ay + i);
    }
  }
}

}  // namespace

void lane_partials(LaneTerm term, const float* x, const float* y,
                   const std::int64_t* start, const std::int64_t* len,
                   std::int64_t count, double* px, double* py) {
  MINSGD_CHECK(count >= 1 && count <= kMaxLanes, "lane_partials: ", count,
               " lanes");
  double ax[kMaxLanes] = {}, ay[kMaxLanes] = {};
  switch (term) {
    case LaneTerm::kSum:
      lanes<LaneTerm::kSum>(x, y, start, len, count, ax, ay);
      break;
    case LaneTerm::kDot:
      lanes<LaneTerm::kDot>(x, y, start, len, count, ax, ay);
      break;
    case LaneTerm::kSquarePair:
      lanes<LaneTerm::kSquarePair>(x, y, start, len, count, ax, ay);
      break;
  }
  std::copy_n(ax, count, px);
  if (term == LaneTerm::kSquarePair) std::copy_n(ay, count, py);
}

void plane_sums(const float* x, std::int64_t planes, std::int64_t plane,
                double* sums) {
  std::int64_t start[kMaxLanes], len[kMaxLanes];
  for (std::int64_t p = 0; p < planes && p < kMaxLanes; ++p) {
    start[p] = p * plane;
    len[p] = plane;
  }
  lane_partials(LaneTerm::kSum, x, nullptr, start, len, planes, sums, nullptr);
}

}  // namespace minsgd::kernels

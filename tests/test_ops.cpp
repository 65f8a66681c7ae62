#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "tensor/context.hpp"
#include "tensor/kernels/dispatch.hpp"
#include "tensor/kernels/reduce.hpp"
#include "tensor/ops.hpp"
#include "tensor/rng.hpp"

namespace minsgd {
namespace {

TEST(Ops, Axpy) {
  std::vector<float> x{1, 2, 3};
  std::vector<float> y{10, 20, 30};
  axpy(2.0f, x, y);
  EXPECT_EQ(y[0], 12.0f);
  EXPECT_EQ(y[2], 36.0f);
}

TEST(OpsDeath, AxpySizeMismatchAborts) {
  std::vector<float> x{1};
  std::vector<float> y{1, 2};
  EXPECT_DEATH(axpy(1.0f, x, y), "axpy: size mismatch \\(1 vs 2\\)");
}

TEST(Ops, Scale) {
  std::vector<float> x{1, -2, 3};
  scale(-1.5f, x);
  EXPECT_EQ(x[0], -1.5f);
  EXPECT_EQ(x[1], 3.0f);
}

TEST(Ops, Dot) {
  std::vector<float> x{1, 2, 3};
  std::vector<float> y{4, 5, 6};
  EXPECT_DOUBLE_EQ(dot(x, y), 32.0);
}

TEST(Ops, L2Norm) {
  std::vector<float> x{3, 4};
  EXPECT_DOUBLE_EQ(l2_norm(x), 5.0);
  EXPECT_DOUBLE_EQ(l2_norm(std::vector<float>{}), 0.0);
}

TEST(Ops, L2NormStableForLargeVectors) {
  std::vector<float> x(1 << 20, 1e-3f);
  EXPECT_NEAR(l2_norm(x), std::sqrt(1048576.0) * 1e-3, 1e-6);
}

TEST(Ops, Sum) {
  std::vector<float> x{0.5f, 0.25f, -0.75f};
  EXPECT_DOUBLE_EQ(sum(x), 0.0);
}

TEST(Ops, MaxValue) {
  std::vector<float> x{-5, -1, -3};
  EXPECT_EQ(max_value(x), -1.0f);
  EXPECT_DEATH(max_value(std::vector<float>{}), "max_value: empty span");
}

TEST(Ops, CopyAndAddAndHadamard) {
  std::vector<float> x{1, 2}, y{3, 4}, z(2);
  copy(x, z);
  EXPECT_EQ(z[1], 2.0f);
  add(x, y, z);
  EXPECT_EQ(z[0], 4.0f);
  hadamard(x, y, z);
  EXPECT_EQ(z[1], 8.0f);
}

TEST(Ops, ReluInplace) {
  std::vector<float> x{-1, 0, 2};
  relu_inplace(x);
  EXPECT_EQ(x[0], 0.0f);
  EXPECT_EQ(x[1], 0.0f);
  EXPECT_EQ(x[2], 2.0f);
}

TEST(Ops, SoftmaxRowsSumToOne) {
  std::vector<float> x{1, 2, 3, -1, 0, 1};
  softmax_rows(x, 2, 3);
  EXPECT_NEAR(x[0] + x[1] + x[2], 1.0, 1e-6);
  EXPECT_NEAR(x[3] + x[4] + x[5], 1.0, 1e-6);
  EXPECT_GT(x[2], x[1]);
}

TEST(Ops, SoftmaxStableForHugeLogits) {
  std::vector<float> x{1000.0f, 1001.0f};
  softmax_rows(x, 1, 2);
  EXPECT_TRUE(all_finite(x));
  EXPECT_NEAR(x[0] + x[1], 1.0, 1e-6);
}

TEST(OpsDeath, SoftmaxSizeMismatchAborts) {
  std::vector<float> x{1, 2, 3};
  EXPECT_DEATH(softmax_rows(x, 2, 2), "softmax_rows: size mismatch");
}

TEST(Ops, AllFinite) {
  EXPECT_TRUE(all_finite(std::vector<float>{1, 2}));
  EXPECT_FALSE(all_finite(
      std::vector<float>{1, std::numeric_limits<float>::infinity()}));
  EXPECT_FALSE(all_finite(
      std::vector<float>{std::numeric_limits<float>::quiet_NaN()}));
}

// ---- reduction oracle ------------------------------------------------------
//
// The context reductions must equal one serial double chain per chunk
// (grain 16384, ops.cpp's kElemGrain), combined in ascending chunk order
// from +0.0, bit for bit, for every thread count and every kernel arm.

/// Values spread over six decades with both signs, so any change in a
/// chunk's addition order changes the rounded sum.
std::vector<float> spread_values(std::int64_t n, std::uint64_t seed) {
  std::vector<float> v(static_cast<std::size_t>(n));
  Rng rng(seed);
  for (auto& x : v) {
    x = static_cast<float>(rng.normal() *
                           std::pow(10.0, rng.uniform() * 6.0 - 3.0));
  }
  return v;
}

enum class Term { kSum, kDot, kSquare };

double serial_chunked(Term term, const std::vector<float>& x,
                      const std::vector<float>& y) {
  const auto n = static_cast<std::int64_t>(x.size());
  const std::int64_t chunks = ComputeContext::chunk_count(n, 16384);
  double acc = 0.0;
  for (std::int64_t c = 0; c < chunks; ++c) {
    const auto [lo, hi] = ComputeContext::chunk_bounds(n, chunks, c);
    double part = 0.0;
    for (std::int64_t i = lo; i < hi; ++i) {
      const double a = x[i];
      part += term == Term::kSum   ? a
              : term == Term::kDot ? a * static_cast<double>(y[i])
                                   : a * a;
    }
    acc += part;
  }
  return acc;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

std::vector<kernels::Isa> supported_isas() {
  std::vector<kernels::Isa> out;
  for (kernels::Isa isa : kernels::kAllIsas) {
    if (kernels::supported(isa)) out.push_back(isa);
  }
  return out;
}

TEST(ReductionOracle, ChunkedReductionsMatchSerialChunks) {
  const std::int64_t sizes[] = {0,          1,          16383,
                                16384,      16385,      5 * 16384 + 7,
                                16 * 16384, 16 * 16384 + 15, 2359296};
  for (const std::int64_t n : sizes) {
    const std::vector<float> x = spread_values(n, 11);
    const std::vector<float> y = spread_values(n, 12);
    const double want_sum = serial_chunked(Term::kSum, x, y);
    const double want_dot = serial_chunked(Term::kDot, x, y);
    const double want_xx = serial_chunked(Term::kSquare, x, x);
    const double want_yy = serial_chunked(Term::kSquare, y, y);
    for (kernels::Isa isa : supported_isas()) {
      kernels::force(isa);
      for (const std::size_t t : {1u, 2u, 3u, 4u}) {
        const ComputeContext ctx(t);
        const auto where = ::testing::Message()
                           << "n=" << n << " isa=" << kernels::to_string(isa)
                           << " t=" << t;
        EXPECT_EQ(bits(sum(ctx, x)), bits(want_sum)) << where;
        EXPECT_EQ(bits(dot(ctx, x, y)), bits(want_dot)) << where;
        EXPECT_EQ(bits(l2_norm(ctx, x)), bits(std::sqrt(want_xx))) << where;
        const auto [xx, yy] = sum_squares(ctx, x, y);
        EXPECT_EQ(bits(xx), bits(want_xx)) << where;
        EXPECT_EQ(bits(yy), bits(want_yy)) << where;
      }
    }
  }
  kernels::clear_force();
}

TEST(ReductionOracle, LanePartialsMatchSerialLanes) {
  // Uneven lanes: every count 1..16, lengths that are and are not a
  // multiple of the SIMD step, an empty lane, lanes out of address order.
  const std::vector<float> x = spread_values(4096, 21);
  const std::vector<float> y = spread_values(4096, 22);
  for (kernels::Isa isa : supported_isas()) {
    kernels::force(isa);
    for (std::int64_t count = 1; count <= kernels::kMaxLanes; ++count) {
      std::int64_t start[kernels::kMaxLanes], len[kernels::kMaxLanes];
      for (std::int64_t i = 0; i < count; ++i) {
        start[i] = ((count - 1 - i) * 211) % 2048;
        len[i] = i == 5 ? 0 : 37 + 16 * i + (count % 3);
      }
      const std::pair<kernels::LaneTerm, Term> terms[] = {
          {kernels::LaneTerm::kSum, Term::kSum},
          {kernels::LaneTerm::kDot, Term::kDot},
          {kernels::LaneTerm::kSquarePair, Term::kSquare}};
      for (const auto& [term, ref] : terms) {
        double px[kernels::kMaxLanes], py[kernels::kMaxLanes];
        kernels::lane_partials(term, x.data(), y.data(), start, len, count,
                               px, py);
        for (std::int64_t i = 0; i < count; ++i) {
          double wx = 0.0, wy = 0.0;
          for (std::int64_t j = start[i]; j < start[i] + len[i]; ++j) {
            const double a = x[j], b = y[j];
            wx += ref == Term::kSum   ? a
                  : ref == Term::kDot ? a * b
                                      : a * a;
            wy += b * b;
          }
          const auto where = ::testing::Message()
                             << "isa=" << kernels::to_string(isa)
                             << " count=" << count << " lane=" << i
                             << " term=" << static_cast<int>(term);
          EXPECT_EQ(bits(px[i]), bits(wx)) << where;
          if (term == kernels::LaneTerm::kSquarePair) {
            EXPECT_EQ(bits(py[i]), bits(wy)) << where;
          }
        }
      }
    }
  }
  kernels::clear_force();
}

TEST(OpsDeath, SumSquaresSizeMismatchAborts) {
  const ComputeContext ctx(1);
  std::vector<float> x{1};
  std::vector<float> y{1, 2};
  EXPECT_DEATH(sum_squares(ctx, x, y), "sum_squares: size mismatch");
}

}  // namespace
}  // namespace minsgd

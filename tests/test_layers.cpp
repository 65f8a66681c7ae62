#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>

#include "grad_check.hpp"
#include "order_sensitive.hpp"
#include "nn/activation.hpp"
#include "nn/dropout.hpp"
#include "nn/linear.hpp"
#include "nn/pool.hpp"
#include "tensor/kernels/dispatch.hpp"

namespace minsgd {
namespace {

// ---------------- ReLU ----------------

TEST(ReLU, ForwardClampsNegatives) {
  const ComputeContext ctx;
  nn::ReLU r;
  Tensor x({1, 4}, std::vector<float>{-2, -0.5f, 0, 3});
  Tensor y;
  r.forward(x, y, false, ctx);
  EXPECT_EQ(y[0], 0.0f);
  EXPECT_EQ(y[1], 0.0f);
  EXPECT_EQ(y[2], 0.0f);
  EXPECT_EQ(y[3], 3.0f);
}

TEST(ReLU, GradCheck) {
  nn::ReLU r;
  testing::check_gradients(r, {2, 3, 4, 4}, /*seed=*/123,
                           {.step = 1e-3, .kink_skip = 1e-2});
}

TEST(ReLU, PreservesShape) {
  nn::ReLU r;
  EXPECT_EQ(r.output_shape({5, 7}), Shape({5, 7}));
}

// ---------------- Flatten ----------------

TEST(Flatten, CollapsesTrailingDims) {
  nn::Flatten f;
  EXPECT_EQ(f.output_shape({4, 3, 2, 2}), Shape({4, 12}));
}

TEST(Flatten, RoundTripsGradient) {
  nn::Flatten f;
  testing::check_gradients(f, {2, 2, 3, 3});
}

TEST(Flatten, RejectsRank1) {
  nn::Flatten f;
  EXPECT_THROW(f.output_shape({4}), std::invalid_argument);
}

// ---------------- Linear ----------------

TEST(Linear, ForwardMatchesManual) {
  const ComputeContext ctx;
  nn::Linear l(2, 3);
  // W is (out x in) = [[1,2],[3,4],[5,6]], b = [0.5, -0.5, 0].
  l.weight() = Tensor({3, 2}, std::vector<float>{1, 2, 3, 4, 5, 6});
  l.bias() = Tensor({3}, std::vector<float>{0.5f, -0.5f, 0.0f});
  Tensor x({1, 2}, std::vector<float>{10, 20});
  Tensor y;
  l.forward(x, y, false, ctx);
  EXPECT_FLOAT_EQ(y[0], 50.5f);
  EXPECT_FLOAT_EQ(y[1], 109.5f);
  EXPECT_FLOAT_EQ(y[2], 170.0f);
}

TEST(Linear, GradCheck) {
  nn::Linear l(5, 4);
  testing::check_gradients(l, {3, 5});
}

TEST(Linear, GradCheckNoBias) {
  nn::Linear l(4, 4, /*bias=*/false);
  testing::check_gradients(l, {2, 4});
  EXPECT_EQ(l.params().size(), 1u);
}

TEST(Linear, FlopsFormula) {
  nn::Linear l(128, 64);
  EXPECT_EQ(l.flops({1, 128}), 2 * 128 * 64);
}

TEST(Linear, RejectsBadInput) {
  nn::Linear l(4, 2);
  EXPECT_THROW(l.output_shape({2, 5}), std::invalid_argument);
  EXPECT_THROW(l.output_shape({2, 4, 1, 1}), std::invalid_argument);
}

// ---------------- MaxPool ----------------

TEST(MaxPool, ForwardPicksMaxima) {
  const ComputeContext ctx;
  nn::MaxPool2d p(2, 2);
  Tensor x({1, 1, 4, 4});
  for (std::int64_t i = 0; i < 16; ++i) x[i] = static_cast<float>(i);
  Tensor y;
  p.forward(x, y, false, ctx);
  EXPECT_EQ(y.shape(), Shape({1, 1, 2, 2}));
  EXPECT_EQ(y[0], 5.0f);
  EXPECT_EQ(y[1], 7.0f);
  EXPECT_EQ(y[2], 13.0f);
  EXPECT_EQ(y[3], 15.0f);
}

TEST(MaxPool, AlexNetOverlappingPoolGeometry) {
  nn::MaxPool2d p(3, 2);
  EXPECT_EQ(p.output_shape({1, 96, 55, 55}), Shape({1, 96, 27, 27}));
}

TEST(MaxPool, BackwardRoutesToArgmaxOnly) {
  const ComputeContext ctx;
  nn::MaxPool2d p(2, 2);
  Tensor x({1, 1, 2, 2}, std::vector<float>{1, 9, 3, 4});
  Tensor y, dy({1, 1, 1, 1}, std::vector<float>{2.0f}), dx;
  p.forward(x, y, true, ctx);
  p.backward(x, y, dy, dx, ctx);
  EXPECT_EQ(dx[0], 0.0f);
  EXPECT_EQ(dx[1], 2.0f);
  EXPECT_EQ(dx[2], 0.0f);
  EXPECT_EQ(dx[3], 0.0f);
}

TEST(MaxPool, GradCheck) {
  // Distinct random values make the argmax stable under the FD step.
  nn::MaxPool2d p(2, 2);
  testing::check_gradients(p, {2, 2, 6, 6}, /*seed=*/321,
                           {.step = 1e-4, .rel_tol = 2e-2, .abs_tol = 1e-4});
}

TEST(MaxPool, PaddedPoolIgnoresPadding) {
  const ComputeContext ctx;
  nn::MaxPool2d p(3, 2, 1);
  Tensor x({1, 1, 2, 2}, std::vector<float>{-1, -2, -3, -4});
  Tensor y;
  p.forward(x, y, false, ctx);
  // With negative inputs, zero padding must NOT win (it is skipped, not 0).
  EXPECT_EQ(y[0], -1.0f);
}

// The argmax rule the forward must keep: each window scans its in-bounds
// taps (padding is never a candidate) in row-major order with a strict >,
// so ties go to the first maximum; backward adds dy into the chosen tap in
// output order. naive_maxpool is that rule written out, one window at a
// time with full 4-D indexing.
struct PoolResult {
  Tensor y, dx;
};

PoolResult naive_maxpool(const Tensor& x, const Tensor& dy, std::int64_t k,
                         std::int64_t stride, std::int64_t pad) {
  const std::int64_t batch = x.shape()[0], ch = x.shape()[1];
  const std::int64_t h = x.shape()[2], w = x.shape()[3];
  const std::int64_t oh = (h + 2 * pad - k) / stride + 1;
  const std::int64_t ow = (w + 2 * pad - k) / stride + 1;
  PoolResult r{Tensor({batch, ch, oh, ow}), Tensor(x.shape())};
  for (std::int64_t n = 0; n < batch; ++n) {
    for (std::int64_t c = 0; c < ch; ++c) {
      for (std::int64_t i = 0; i < oh; ++i) {
        for (std::int64_t j = 0; j < ow; ++j) {
          float best = -std::numeric_limits<float>::infinity();
          std::int64_t bi = -1, bj = -1;
          for (std::int64_t ki = 0; ki < k; ++ki) {
            for (std::int64_t kj = 0; kj < k; ++kj) {
              const std::int64_t ih = i * stride - pad + ki;
              const std::int64_t iw = j * stride - pad + kj;
              if (ih < 0 || ih >= h || iw < 0 || iw >= w) continue;
              if (x.at(n, c, ih, iw) > best) {
                best = x.at(n, c, ih, iw);
                bi = ih;
                bj = iw;
              }
            }
          }
          r.y.at(n, c, i, j) = best;
          if (bi >= 0) r.dx.at(n, c, bi, bj) += dy.at(n, c, i, j);
        }
      }
    }
  }
  return r;
}

/// Runs the layer forward and backward and checks y and dx against
/// naive_maxpool bit for bit.
void expect_pool_matches_naive(const Tensor& x, std::int64_t k,
                               std::int64_t stride, std::int64_t pad) {
  nn::MaxPool2d p(k, stride, pad);
  const ComputeContext ctx;
  Tensor y, dx;
  p.forward(x, y, true, ctx);
  Tensor dy(y.shape());
  Rng rng(static_cast<std::uint64_t>(k * 100 + stride * 10 + pad));
  rng.fill_normal(dy.span(), 0.0f, 1.0f);
  p.backward(x, y, dy, dx, ctx);
  const PoolResult ref = naive_maxpool(x, dy, k, stride, pad);
  ASSERT_EQ(y.shape(), ref.y.shape());
  for (std::int64_t i = 0; i < y.numel(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint32_t>(y[i]),
              std::bit_cast<std::uint32_t>(ref.y[i]))
        << "y at " << i << " k=" << k << " s=" << stride << " p=" << pad;
  }
  for (std::int64_t i = 0; i < dx.numel(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint32_t>(dx[i]),
              std::bit_cast<std::uint32_t>(ref.dx[i]))
        << "dx at " << i << " k=" << k << " s=" << stride << " p=" << pad;
  }
}

TEST(MaxPool, AllEqualWindowRoutesToFirstTap) {
  const ComputeContext ctx;
  nn::MaxPool2d p(2, 2);
  Tensor x({1, 1, 4, 4}, 3.0f), y, dx;
  p.forward(x, y, true, ctx);
  const Tensor dy(y.shape(), 1.0f);
  p.backward(x, y, dy, dx, ctx);
  // Each 2x2 window's first tap in row-major order is its top-left.
  for (std::int64_t i = 0; i < 4; ++i) {
    for (std::int64_t j = 0; j < 4; ++j) {
      const float want = (i % 2 == 0 && j % 2 == 0) ? 1.0f : 0.0f;
      EXPECT_EQ(dx.at(0, 0, i, j), want) << i << "," << j;
    }
  }
  // Overlapping windows (the ResNet stem geometry) on equal values.
  expect_pool_matches_naive(Tensor({1, 2, 7, 7}, 3.0f), 3, 2, 1);
}

TEST(MaxPool, AllZeroPostReluWindowRoutesToFirstTap) {
  // A post-ReLU map of negative pre-activations is all +0: every window
  // ties, and dy goes to its first in-bounds tap.
  const ComputeContext ctx;
  Tensor pre({2, 3, 9, 8}, -1.0f), x;
  nn::ReLU relu;
  relu.forward(pre, x, false, ctx);
  nn::MaxPool2d p(3, 2, 1);
  Tensor y, dx;
  p.forward(x, y, true, ctx);
  const Tensor dy(y.shape(), 1.0f);
  p.backward(x, y, dy, dx, ctx);
  // Output (i, j)'s first in-bounds tap is (max(2i - 1, 0), max(2j - 1, 0)).
  Tensor want(x.shape());
  for (std::int64_t n = 0; n < 2; ++n) {
    for (std::int64_t c = 0; c < 3; ++c) {
      for (std::int64_t i = 0; i < y.shape()[2]; ++i) {
        for (std::int64_t j = 0; j < y.shape()[3]; ++j) {
          want.at(n, c, std::max<std::int64_t>(2 * i - 1, 0),
                  std::max<std::int64_t>(2 * j - 1, 0)) += 1.0f;
        }
      }
    }
  }
  for (std::int64_t i = 0; i < dx.numel(); ++i) {
    EXPECT_EQ(dx[i], want[i]) << "at " << i;
  }
  expect_pool_matches_naive(x, 3, 2, 1);
}

TEST(MaxPool, PaddedBorderWindowsNeverIndexPadding) {
  // All inputs below zero: a padded zero would win every border window if
  // padding were a candidate. And an all -inf map has no max above the
  // initial -inf, so nothing is routed (no tap, and no padding, is picked).
  const ComputeContext ctx;
  for (const float v : {-5.0f, -std::numeric_limits<float>::infinity()}) {
    Tensor x({1, 2, 6, 5}, v);
    nn::MaxPool2d p(3, 2, 1);
    Tensor y, dx;
    p.forward(x, y, true, ctx);
    for (std::int64_t i = 0; i < y.numel(); ++i) EXPECT_EQ(y[i], v);
    const Tensor dy(y.shape(), 1.0f);
    p.backward(x, y, dy, dx, ctx);
    double routed = 0.0;
    for (std::int64_t i = 0; i < dx.numel(); ++i) routed += dx[i];
    EXPECT_EQ(routed, v > -std::numeric_limits<float>::infinity()
                          ? static_cast<double>(y.numel())
                          : 0.0);
    expect_pool_matches_naive(x, 3, 2, 1);
  }
}

TEST(MaxPool, TiesMatchNaiveScanAcrossGeometries) {
  // Values from {0, 1, 2}: most windows hold ties. Geometries cover the
  // ResNet stem (3/s2/p1, odd and even sizes), AlexNet's 3/s2, the
  // proxies' 2/s2, stride 1, and a window wider than its stride.
  struct Geom {
    std::int64_t k, stride, pad, h, w;
  };
  const Geom geoms[] = {{3, 2, 1, 12, 12}, {3, 2, 1, 11, 9}, {3, 2, 0, 13, 13},
                        {2, 2, 0, 10, 8},  {3, 1, 1, 7, 6},  {5, 3, 2, 11, 10},
                        {3, 2, 1, 40, 37}};
  Rng rng(8);
  for (const Geom& g : geoms) {
    Tensor x({2, 3, g.h, g.w});
    for (auto& v : x.span()) v = static_cast<float>(rng.uniform_int(3));
    expect_pool_matches_naive(x, g.k, g.stride, g.pad);
  }
}

TEST(MaxPool, NarrowRowsMatchNaiveScan) {
  // Every output width 1..17 (the AlexNet proxy pools rows of 16, 8 and
  // 4), for the tiled 2/s2 windows (with and without a leftover column)
  // and the overlapping padded 3/s2/p1 ones. Plane 0 holds ties with NaN
  // sprinkled in, plane 1 is all equal, plane 2 all NaN (no tap ever
  // beats -inf), plane 3 has -inf and NaN windows next to finite ones.
  Rng rng(13);
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  for (std::int64_t ow = 1; ow <= 17; ++ow) {
    struct Geom {
      std::int64_t k, stride, pad, h, w;
    };
    const Geom geoms[] = {{2, 2, 0, 6, 2 * ow},
                          {2, 2, 0, 5, 2 * ow + 1},
                          {3, 2, 1, 7, 2 * ow},
                          {3, 2, 1, 6, 2 * ow - 1}};
    for (const Geom& g : geoms) {
      Tensor x({1, 4, g.h, g.w});
      const std::int64_t plane = g.h * g.w;
      for (std::int64_t i = 0; i < plane; ++i) {
        const double u = rng.uniform();
        x[i] = u < 0.15 ? nan : static_cast<float>(rng.uniform_int(3));
        x[plane + i] = 1.0f;
        x[2 * plane + i] = nan;
        x[3 * plane + i] = (i / 2) % 3 == 0 ? -inf
                           : (i / 2) % 3 == 1 ? nan
                                              : static_cast<float>(i % 5);
      }
      SCOPED_TRACE(::testing::Message() << "ow=" << ow << " k=" << g.k);
      expect_pool_matches_naive(x, g.k, g.stride, g.pad);
    }
  }
}

// ---------------- AvgPool ----------------

TEST(AvgPool, ForwardAverages) {
  const ComputeContext ctx;
  nn::AvgPool2d p(2, 2);
  Tensor x({1, 1, 2, 2}, std::vector<float>{1, 2, 3, 4});
  Tensor y;
  p.forward(x, y, false, ctx);
  EXPECT_FLOAT_EQ(y[0], 2.5f);
}

TEST(AvgPool, GradCheck) {
  nn::AvgPool2d p(2, 2);
  testing::check_gradients(p, {2, 3, 4, 4});
}

TEST(AvgPool, GradCheckOverlapping) {
  nn::AvgPool2d p(3, 2, 1);
  testing::check_gradients(p, {1, 2, 5, 5});
}

// ---------------- GlobalAvgPool ----------------

TEST(GlobalAvgPool, ReducesToChannels) {
  const ComputeContext ctx;
  nn::GlobalAvgPool g;
  Tensor x({2, 3, 4, 4}, 2.0f);
  Tensor y;
  g.forward(x, y, false, ctx);
  EXPECT_EQ(y.shape(), Shape({2, 3}));
  EXPECT_FLOAT_EQ(y[0], 2.0f);
}

TEST(GlobalAvgPool, ForwardMatchesPerPlaneReference) {
  // Each (image, channel) mean is one serial double sum of its plane,
  // planes interleaved kMaxLanes at a time: channel counts around the lane
  // width and a 7x7 plane (the ResNet head) must give the bytes of a
  // one-plane-at-a-time loop on every ISA arm.
  const ComputeContext ctx;
  Rng rng(29);
  for (const std::int64_t ch : {1, 3, 5, 17, 33}) {
    Tensor x({2, ch, 7, 7});
    for (std::int64_t p = 0; p < 2 * ch; ++p) {
      testing::fill_order_sensitive(x.data() + p * 49, 49, rng);
    }
    for (kernels::Isa isa : kernels::kAllIsas) {
      if (!kernels::supported(isa)) continue;
      kernels::force(isa);
      nn::GlobalAvgPool g;
      Tensor y;
      g.forward(x, y, false, ctx);
      for (std::int64_t p = 0; p < 2 * ch; ++p) {
        double acc = 0.0;
        for (std::int64_t s = 0; s < 49; ++s) acc += x[p * 49 + s];
        const float want = static_cast<float>(acc) * (1.0f / 49.0f);
        EXPECT_EQ(std::bit_cast<std::uint32_t>(y[p]),
                  std::bit_cast<std::uint32_t>(want))
            << "ch=" << ch << " plane=" << p
            << " isa=" << kernels::to_string(isa);
      }
    }
  }
  kernels::clear_force();
}

TEST(GlobalAvgPool, GradCheck) {
  nn::GlobalAvgPool g;
  testing::check_gradients(g, {2, 4, 3, 3});
}

// ---------------- Dropout ----------------

TEST(Dropout, EvalModeIsIdentity) {
  const ComputeContext ctx;
  nn::Dropout d(0.5f);
  Tensor x({1, 100}, 1.0f), y;
  d.forward(x, y, /*training=*/false, ctx);
  for (std::int64_t i = 0; i < 100; ++i) EXPECT_EQ(y[i], 1.0f);
}

TEST(Dropout, TrainModeZeroesAboutPFraction) {
  const ComputeContext ctx;
  nn::Dropout d(0.5f, /*seed=*/42);
  Tensor x({1, 10000}, 1.0f), y;
  d.forward(x, y, /*training=*/true, ctx);
  int zeros = 0;
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    if (y[i] == 0.0f) ++zeros;
  }
  EXPECT_NEAR(zeros, 5000, 200);
}

TEST(Dropout, SurvivorsScaledByInverseKeep) {
  const ComputeContext ctx;
  nn::Dropout d(0.75f, 1);
  Tensor x({1, 1000}, 1.0f), y;
  d.forward(x, y, true, ctx);
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    EXPECT_TRUE(y[i] == 0.0f || y[i] == 4.0f);
  }
}

TEST(Dropout, BackwardUsesSameMask) {
  const ComputeContext ctx;
  nn::Dropout d(0.5f, 7);
  Tensor x({1, 64}, 1.0f), y, dy({1, 64}, 1.0f), dx;
  d.forward(x, y, true, ctx);
  d.backward(x, y, dy, dx, ctx);
  for (std::int64_t i = 0; i < 64; ++i) EXPECT_EQ(dx[i], y[i]);
}

TEST(Dropout, ZeroProbabilityIsIdentityInTraining) {
  const ComputeContext ctx;
  nn::Dropout d(0.0f);
  Tensor x({1, 8}, 3.0f), y;
  d.forward(x, y, true, ctx);
  for (std::int64_t i = 0; i < 8; ++i) EXPECT_EQ(y[i], 3.0f);
}

TEST(Dropout, RejectsInvalidP) {
  EXPECT_THROW(nn::Dropout(-0.1f), std::invalid_argument);
  EXPECT_THROW(nn::Dropout(1.0f), std::invalid_argument);
}

}  // namespace
}  // namespace minsgd

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstring>
#include <vector>

#include "conv_reference.hpp"
#include "grad_check.hpp"
#include "order_sensitive.hpp"
#include "nn/conv.hpp"
#include "tensor/context.hpp"
#include "tensor/gemm.hpp"
#include "tensor/kernels/conv_direct.hpp"
#include "tensor/kernels/dispatch.hpp"
#include "tensor/rng.hpp"

namespace minsgd {
namespace {

using nn::Conv2d;

TEST(Conv2d, OutputShapeNoPad) {
  Conv2d c(3, 8, 3);
  EXPECT_EQ(c.output_shape({2, 3, 8, 8}), Shape({2, 8, 6, 6}));
}

TEST(Conv2d, OutputShapeWithPadAndStride) {
  Conv2d c(3, 16, 3, 2, 1);
  EXPECT_EQ(c.output_shape({4, 3, 32, 32}), Shape({4, 16, 16, 16}));
}

TEST(Conv2d, AlexNetConv1Geometry) {
  Conv2d c(3, 96, 11, 4, 0);
  EXPECT_EQ(c.output_shape({1, 3, 227, 227}), Shape({1, 96, 55, 55}));
}

TEST(Conv2d, RejectsWrongChannelCount) {
  Conv2d c(3, 8, 3);
  EXPECT_THROW(c.output_shape({1, 4, 8, 8}), std::invalid_argument);
}

TEST(Conv2d, RejectsTooSmallInput) {
  Conv2d c(3, 8, 5);
  EXPECT_THROW(c.output_shape({1, 3, 4, 4}), std::invalid_argument);
}

TEST(Conv2d, RejectsBadConfig) {
  EXPECT_THROW(Conv2d(0, 8, 3), std::invalid_argument);
  EXPECT_THROW(Conv2d(3, 8, 0), std::invalid_argument);
  EXPECT_THROW(Conv2d(3, 8, 3, 0), std::invalid_argument);
  EXPECT_THROW(Conv2d(3, 8, 3, 1, -1), std::invalid_argument);
  EXPECT_THROW(Conv2d(3, 8, 3, 1, 0, true, 2),  // 3 % 2 != 0
               std::invalid_argument);
}

TEST(Conv2d, IdentityKernelPassesThrough) {
  const ComputeContext ctx;
  Conv2d c(1, 1, 1, 1, 0, /*bias=*/false);
  c.weight().fill(1.0f);
  Tensor x({1, 1, 3, 3}, std::vector<float>{1, 2, 3, 4, 5, 6, 7, 8, 9});
  Tensor y;
  c.forward(x, y, false, ctx);
  for (std::int64_t i = 0; i < 9; ++i) EXPECT_EQ(y[i], x[i]);
}

TEST(Conv2d, KnownSmallConvolution) {
  // 2x2 input, 2x2 kernel of ones, no pad: output = sum of all inputs.
  const ComputeContext ctx;
  Conv2d c(1, 1, 2, 1, 0, /*bias=*/false);
  c.weight().fill(1.0f);
  Tensor x({1, 1, 2, 2}, std::vector<float>{1, 2, 3, 4});
  Tensor y;
  c.forward(x, y, false, ctx);
  ASSERT_EQ(y.numel(), 1);
  EXPECT_EQ(y[0], 10.0f);
}

TEST(Conv2d, BiasAddsPerChannel) {
  const ComputeContext ctx;
  Conv2d c(1, 2, 1, 1, 0, /*bias=*/true);
  c.weight().zero();
  c.bias()[0] = 1.5f;
  c.bias()[1] = -2.0f;
  Tensor x({1, 1, 2, 2}, 3.0f);
  Tensor y;
  c.forward(x, y, false, ctx);
  EXPECT_EQ(y.at(0, 0, 0, 0), 1.5f);
  EXPECT_EQ(y.at(0, 1, 1, 1), -2.0f);
}

TEST(Conv2d, GroupsPartitionChannels) {
  // 2 groups: output channel 0 must not depend on input channel 1.
  const ComputeContext ctx;
  Conv2d c(2, 2, 1, 1, 0, /*bias=*/false, /*groups=*/2);
  c.weight().fill(1.0f);
  Tensor x({1, 2, 1, 1}, std::vector<float>{5.0f, 7.0f});
  Tensor y;
  c.forward(x, y, false, ctx);
  EXPECT_EQ(y[0], 5.0f);
  EXPECT_EQ(y[1], 7.0f);
}

TEST(Conv2d, GroupedParamCountHalved) {
  Conv2d full(96, 256, 5, 1, 2, true, 1);
  Conv2d grouped(96, 256, 5, 1, 2, true, 2);
  auto count = [](Conv2d& c) {
    std::int64_t n = 0;
    for (auto& p : c.params()) n += p.value->numel();
    return n;
  };
  EXPECT_EQ(count(full) - 256, 2 * (count(grouped) - 256));
}

TEST(Conv2d, FlopsMatchFormula) {
  Conv2d c(3, 8, 3, 1, 1);
  // out 8x8: 2 * 8 * 3 * 9 * 64
  EXPECT_EQ(c.flops({1, 3, 8, 8}), 2 * 8 * 3 * 3 * 3 * 8 * 8);
}

TEST(Conv2d, GradCheckBasic) {
  Conv2d c(2, 3, 3, 1, 1);
  testing::check_gradients(c, {2, 2, 5, 5});
}

TEST(Conv2d, GradCheckStridedNoBias) {
  Conv2d c(3, 4, 3, 2, 1, /*bias=*/false);
  testing::check_gradients(c, {2, 3, 7, 7});
}

TEST(Conv2d, GradCheckGrouped) {
  Conv2d c(4, 4, 3, 1, 1, /*bias=*/true, /*groups=*/2);
  testing::check_gradients(c, {1, 4, 5, 5});
}

TEST(Conv2d, GradCheck1x1) {
  Conv2d c(4, 6, 1, 1, 0);
  testing::check_gradients(c, {2, 4, 4, 4});
}

// Exhaustive configuration grid: every (kernel, stride, pad, groups, bias)
// combination must pass the finite-difference check.
struct ConvGridCase {
  std::int64_t kernel, stride, pad, groups;
  bool bias;
};

class ConvGradGrid : public ::testing::TestWithParam<ConvGridCase> {};

TEST_P(ConvGradGrid, GradCheck) {
  const auto& p = GetParam();
  Conv2d c(4, 4, p.kernel, p.stride, p.pad, p.bias, p.groups);
  testing::check_gradients(c, {1, 4, 6, 6},
                           /*seed=*/static_cast<std::uint64_t>(
                               p.kernel * 1000 + p.stride * 100 +
                               p.pad * 10 + p.groups));
}

std::vector<ConvGridCase> conv_grid() {
  std::vector<ConvGridCase> cases;
  for (std::int64_t k : {1, 2, 3}) {
    for (std::int64_t s : {1, 2}) {
      for (std::int64_t pad : {0, 1}) {
        for (std::int64_t g : {1, 2, 4}) {
          for (bool bias : {false, true}) {
            cases.push_back({k, s, pad, g, bias});
          }
        }
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Grid, ConvGradGrid, ::testing::ValuesIn(conv_grid()));

// -- direct-path oracle -----------------------------------------------------
//
// The direct (im2col-free) conv path must agree with (a) a naive
// double-accumulated reference within float tolerance, and (b) the im2col
// reference (tests/conv_reference.hpp) byte for byte at sizes where sgemm
// takes its packed microkernel path — same packed values, same microkernel
// visit order, so not just close but identical.

/// Naive direct convolution, double accumulation, groups == 1.
Tensor naive_conv(const Tensor& x, const Tensor& w, const Tensor* bias,
                  std::int64_t stride, std::int64_t pad) {
  const std::int64_t batch = x.shape()[0], in_c = x.shape()[1];
  const std::int64_t h = x.shape()[2], wdim = x.shape()[3];
  const std::int64_t out_c = w.shape()[0], k = w.shape()[2];
  const std::int64_t out_h = (h + 2 * pad - k) / stride + 1;
  const std::int64_t out_w = (wdim + 2 * pad - k) / stride + 1;
  Tensor y({batch, out_c, out_h, out_w});
  for (std::int64_t n = 0; n < batch; ++n) {
    for (std::int64_t oc = 0; oc < out_c; ++oc) {
      for (std::int64_t oh = 0; oh < out_h; ++oh) {
        for (std::int64_t ow = 0; ow < out_w; ++ow) {
          double acc = bias != nullptr ? (*bias)[oc] : 0.0;
          for (std::int64_t ci = 0; ci < in_c; ++ci) {
            for (std::int64_t ki = 0; ki < k; ++ki) {
              const std::int64_t ih = oh * stride - pad + ki;
              if (ih < 0 || ih >= h) continue;
              for (std::int64_t kj = 0; kj < k; ++kj) {
                const std::int64_t iw = ow * stride - pad + kj;
                if (iw < 0 || iw >= wdim) continue;
                acc += static_cast<double>(x.at(n, ci, ih, iw)) *
                       w.at(oc, ci, ki, kj);
              }
            }
          }
          y.at(n, oc, oh, ow) = static_cast<float>(acc);
        }
      }
    }
  }
  return y;
}

TEST(ConvOracle, DirectForwardMatchesNaiveReference) {
  const ComputeContext ctx;
  struct Case {
    std::int64_t in_c, out_c, k, pad, hw;
  };
  const Case cases[] = {
      {3, 8, 3, 1, 9},  {4, 6, 3, 0, 7},  {5, 7, 3, 1, 12},
      {4, 6, 1, 0, 8},  {8, 5, 1, 0, 5},
  };
  Rng rng(77);
  for (const auto& c : cases) {
    Conv2d conv(c.in_c, c.out_c, c.k, 1, c.pad, /*bias=*/true);
    conv.init(rng);
    rng.fill_normal(conv.bias().span(), 0.0f, 0.5f);
    Tensor x({2, c.in_c, c.hw, c.hw});
    rng.fill_normal(x.span(), 0.0f, 1.0f);
    Tensor y;
    conv.forward(x, y, false, ctx);
    const Tensor ref = naive_conv(x, conv.weight(), &conv.bias(), 1, c.pad);
    ASSERT_EQ(y.shape(), ref.shape());
    for (std::int64_t i = 0; i < y.numel(); ++i) {
      ASSERT_NEAR(y[i], ref[i], 1e-3 * (1.0 + std::abs(ref[i])))
          << "k=" << c.k << " pad=" << c.pad << " at " << i;
    }
  }
}

/// Conv2d's y, dx, then every parameter gradient, concatenated (the
/// layout of testing::im2col_passes), for one forward + backward on `ctx`.
std::vector<float> conv_passes(Conv2d& conv, const Tensor& x, const Tensor& dy,
                               const ComputeContext& ctx) {
  Tensor y, dx;
  conv.forward(x, y, true, ctx);
  for (auto& p : conv.params()) p.grad->zero();
  conv.backward(x, y, dy, dx, ctx);
  std::vector<float> out(y.span().begin(), y.span().end());
  out.insert(out.end(), dx.span().begin(), dx.span().end());
  for (auto& p : conv.params()) {
    out.insert(out.end(), p.grad->span().begin(), p.grad->span().end());
  }
  return out;
}

TEST(ConvOracle, Direct3x3BitIdenticalToIm2colAtPackedSizes) {
  // kdim=288, spatial=256, out_c=48: the im2col sgemm takes the packed
  // microkernel path, so direct and im2col must agree bytewise.
  const ComputeContext ctx;
  Conv2d conv(32, 48, 3, 1, 1);
  Rng rng(11);
  conv.init(rng);
  rng.fill_normal(conv.bias().span(), 0.0f, 0.5f);
  Tensor x({2, 32, 16, 16});
  rng.fill_normal(x.span(), 0.0f, 1.0f);
  ASSERT_EQ(conv.lowering(x.shape(), kernels::ConvPass::kForward),
            kernels::ConvLowering::kFused);

  const ComputeContext ctx1(1);
  const std::vector<float> y_ref =
      testing::im2col_forward(ctx1, x, conv.weight(), &conv.bias(), 1, 1);
  Tensor y_direct;
  conv.forward(x, y_direct, false, ctx);
  ASSERT_EQ(static_cast<std::size_t>(y_direct.numel()), y_ref.size());
  EXPECT_EQ(std::memcmp(y_direct.data(), y_ref.data(),
                        y_ref.size() * sizeof(float)),
            0);
}

TEST(ConvOracle, Direct1x1BitIdenticalToIm2colForwardBackward) {
  Conv2d conv(64, 64, 1);
  Rng rng(13);
  conv.init(rng);
  Tensor x({2, 64, 16, 16});
  rng.fill_normal(x.span(), 0.0f, 1.0f);
  Tensor dy(conv.output_shape(x.shape()));
  Rng grng(17);
  grng.fill_normal(dy.span(), 0.0f, 1.0f);
  for (const auto pass :
       {kernels::ConvPass::kForward, kernels::ConvPass::kBackward}) {
    ASSERT_EQ(conv.lowering(x.shape(), pass), kernels::ConvLowering::kGemm);
  }

  const ComputeContext ctx1(1), ctx4(4);
  const std::vector<float> ref =
      testing::im2col_passes(ctx1, x, conv.weight(), &conv.bias(), dy, 1, 0);
  for (const ComputeContext* ctx : {&ctx1, &ctx4}) {
    const std::vector<float> got = conv_passes(conv, x, dy, *ctx);
    ASSERT_EQ(got.size(), ref.size());
    EXPECT_EQ(std::memcmp(got.data(), ref.data(), ref.size() * sizeof(float)),
              0)
        << "threads=" << ctx->threads();
  }
}

// Forward and backward (y, dx, dW, db) of every conv shape ResNet-50 uses
// — 3x3 s1, 1x1 s1 (gemm lowering), 3x3 s2 and the 7x7 s2 stem (fused) — at
// sizes where the inner sgemm takes the packed path: every supported ISA
// arm must reproduce the forced-portable bytes.
TEST(ConvOracle, EveryConvPathBitIdenticalAcrossIsaPaths) {
  struct Case {
    std::int64_t in_c, out_c, k, stride, pad, hw;
  };
  const Case cases[] = {{16, 24, 3, 1, 1, 12},
                        {48, 48, 1, 1, 0, 14},
                        {32, 48, 3, 2, 1, 16},
                        {3, 64, 7, 2, 3, 32}};
  for (const Case& c : cases) {
    Conv2d conv(c.in_c, c.out_c, c.k, c.stride, c.pad, /*bias=*/true);
    Rng rng(static_cast<std::uint64_t>(23 + c.k * 5 + c.stride));
    conv.init(rng);
    rng.fill_normal(conv.bias().span(), 0.0f, 0.5f);
    Tensor x({2, c.in_c, c.hw, c.hw});
    rng.fill_normal(x.span(), 0.0f, 1.0f);
    Tensor dy(conv.output_shape(x.shape()));
    rng.fill_normal(dy.span(), 0.0f, 1.0f);

    const ComputeContext ctx;
    auto run = [&](kernels::Isa isa) {
      kernels::force(isa);
      return conv_passes(conv, x, dy, ctx);
    };
    const std::vector<float> base = run(kernels::Isa::kPortable);
    for (kernels::Isa isa : kernels::kAllIsas) {
      if (!kernels::supported(isa)) continue;
      const std::vector<float> got = run(isa);
      ASSERT_EQ(got.size(), base.size());
      EXPECT_EQ(std::memcmp(got.data(), base.data(),
                            base.size() * sizeof(float)),
                0)
          << kernels::to_string(isa) << " differs for k=" << c.k
          << " stride=" << c.stride;
    }
  }
  kernels::clear_force();
}

// The fused lowering must reproduce the im2col bytes for y, dx, dW and db
// wherever it applies, at 1 and 4 threads: stride 1 and 2, 1x1 s2, the 7x7
// stem, a 7x7 output plane, out_c > kKC (two depth blocks for dx), kdim >
// kNC (two column blocks for dW), spatial > kNC, more than one dcol row
// block, and a batch of 3 (three backward chunks). A shape just below
// kSmallGemmFlops keeps the im2col lowering and its bytes.
TEST(ConvOracle, FusedBackwardBitIdenticalToIm2col) {
  struct Case {
    std::int64_t in_c, out_c, k, stride, pad, hw;
    bool fused;
  };
  const Case cases[] = {
      {16, 24, 3, 1, 0, 14, true},   // 3x3 s1, pad 0
      {16, 24, 3, 1, 1, 12, true},   // 3x3 s1, pad 1
      {32, 48, 3, 2, 1, 16, true},   // 3x3 s2
      {64, 96, 1, 2, 0, 14, true},   // 1x1 s2 projection
      {3, 64, 7, 2, 3, 32, true},    // 7x7 s2 p3 stem
      {64, 64, 3, 1, 1, 7, true},    // 7x7 output plane
      {16, 264, 3, 1, 1, 6, true},   // out_c > kKC
      {64, 16, 3, 1, 1, 16, true},   // kdim > kNC, two dcol row blocks
      {8, 16, 3, 1, 1, 24, true},    // spatial > kNC
      {16, 28, 3, 2, 1, 16, false},  // 28*144*64 just below kSmallGemmFlops
  };
  const ComputeContext ctx1(1), ctx4(4);
  for (const Case& c : cases) {
    Conv2d conv(c.in_c, c.out_c, c.k, c.stride, c.pad, /*bias=*/true);
    Rng rng(static_cast<std::uint64_t>(c.in_c * 131 + c.out_c * 7 + c.k));
    conv.init(rng);
    rng.fill_normal(conv.bias().span(), 0.0f, 0.5f);
    Tensor x({3, c.in_c, c.hw, c.hw});
    rng.fill_normal(x.span(), 0.0f, 1.0f);
    const Shape out = conv.output_shape(x.shape());
    Tensor dy(out);
    rng.fill_normal(dy.span(), 0.0f, 1.0f);
    const std::int64_t kdim = c.in_c * c.k * c.k;
    ASSERT_EQ(c.out_c * kdim * out[2] * out[3] > kSmallGemmFlops, c.fused)
        << "case geometry does not test what it claims";
    const auto want = c.fused ? kernels::ConvLowering::kFused
                              : kernels::ConvLowering::kIm2col;
    EXPECT_EQ(conv.lowering(x.shape(), kernels::ConvPass::kBackward), want);
    EXPECT_EQ(conv.lowering(x.shape(), kernels::ConvPass::kForward), want);

    const std::vector<float> ref =
        testing::im2col_passes(ctx1, x, conv.weight(), &conv.bias(), dy,
                               c.stride, c.pad);
    for (const ComputeContext* ctx : {&ctx1, &ctx4}) {
      const std::vector<float> got = conv_passes(conv, x, dy, *ctx);
      ASSERT_EQ(got.size(), ref.size());
      EXPECT_EQ(
          std::memcmp(got.data(), ref.data(), ref.size() * sizeof(float)), 0)
          << "in_c=" << c.in_c << " out_c=" << c.out_c << " k=" << c.k
          << " stride=" << c.stride << " pad=" << c.pad << " hw=" << c.hw
          << " threads=" << ctx->threads();
    }
  }
}

TEST(ConvOracle, ZeroBatchDirectKernelNoOp) {
  // Layer::forward rejects empty inputs by contract, so zero-size coverage
  // targets the kernel API: batch == 0 must be a no-op, not a crash.
  const kernels::Conv2dGeom geom{/*in_c=*/3, /*h=*/8,  /*w=*/8,
                                 /*out_c=*/8, /*out_h=*/8, /*out_w=*/8,
                                 /*k=*/3,     /*stride=*/1, /*pad=*/1};
  std::vector<float> w(static_cast<std::size_t>(8 * 3 * 3 * 3), 1.0f);
  ComputeContext ctx(4);
  kernels::conv2d_forward_direct(ctx, nullptr, w.data(), nullptr, nullptr, 0,
                                 geom);
}

TEST(Conv2d, GradientsAccumulateAcrossBackwardCalls) {
  const ComputeContext ctx;
  Conv2d c(1, 1, 1, 1, 0, /*bias=*/false);
  Rng rng(5);
  c.init(rng);
  Tensor x({1, 1, 2, 2}, 1.0f), y, dy({1, 1, 2, 2}, 1.0f), dx;
  c.forward(x, y, true, ctx);
  for (auto& p : c.params()) p.grad->zero();
  c.backward(x, y, dy, dx, ctx);
  const float once = c.params()[0].grad->operator[](0);
  c.backward(x, y, dy, dx, ctx);
  EXPECT_FLOAT_EQ(c.params()[0].grad->operator[](0), 2.0f * once);
}

// The bias gradient reduces each (image, channel) plane of dy in one
// serial double chain, planes interleaved kMaxLanes at a time: db must
// equal a per-channel scalar reference bit for bit — float(plane sum)
// added per image in batch order (a batch of 3 runs one image per backward
// chunk) — for channel counts around the lane width, every ISA arm and
// thread count.
TEST(ConvOracle, BiasGradientMatchesPerChannelReference) {
  for (const std::int64_t out_c : {1, 3, 5, 17, 64}) {
    Conv2d conv(4, out_c, 3, 1, 1, /*bias=*/true);
    Rng rng(static_cast<std::uint64_t>(61 + out_c));
    conv.init(rng);
    Tensor x({3, 4, 7, 9});
    rng.fill_normal(x.span(), 0.0f, 1.0f);
    Tensor dy(conv.output_shape(x.shape()));
    const std::int64_t spatial = dy.shape()[2] * dy.shape()[3];
    for (std::int64_t p = 0; p < 3 * out_c; ++p) {
      testing::fill_order_sensitive(dy.data() + p * spatial, spatial, rng);
    }
    std::vector<float> want(static_cast<std::size_t>(out_c), 0.0f);
    for (std::int64_t n = 0; n < 3; ++n) {
      for (std::int64_t oc = 0; oc < out_c; ++oc) {
        const float* plane = dy.data() + (n * out_c + oc) * spatial;
        double acc = 0.0;
        for (std::int64_t s = 0; s < spatial; ++s) acc += plane[s];
        want[oc] += static_cast<float>(acc);
      }
    }
    for (kernels::Isa isa : kernels::kAllIsas) {
      if (!kernels::supported(isa)) continue;
      kernels::force(isa);
      for (const std::size_t t : {1u, 2u, 3u, 4u}) {
        const ComputeContext ctx(t);
        Tensor y, dx;
        conv.forward(x, y, true, ctx);
        for (auto& p : conv.params()) p.grad->zero();
        conv.backward(x, y, dy, dx, ctx);
        const Tensor& db = *conv.params()[1].grad;
        for (std::int64_t oc = 0; oc < out_c; ++oc) {
          EXPECT_EQ(std::bit_cast<std::uint32_t>(db[oc]),
                    std::bit_cast<std::uint32_t>(want[oc]))
              << "out_c=" << out_c << " oc=" << oc
              << " isa=" << kernels::to_string(isa) << " t=" << t;
        }
      }
    }
  }
  kernels::clear_force();
}

}  // namespace
}  // namespace minsgd

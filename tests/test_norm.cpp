#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "grad_check.hpp"
#include "nn/activation.hpp"
#include "nn/norm.hpp"
#include "tensor/context.hpp"
#include "tensor/kernels/dispatch.hpp"

namespace minsgd {
namespace {

TEST(BatchNorm, TrainForwardNormalizesPerChannel) {
  const ComputeContext ctx;
  nn::BatchNorm2d bn(2);
  Rng rng(3);
  Tensor x({4, 2, 3, 3});
  rng.fill_normal(x.span(), 5.0f, 2.0f);
  Tensor y;
  bn.forward(x, y, /*training=*/true, ctx);
  // Each channel of y should have ~zero mean and ~unit variance.
  for (std::int64_t c = 0; c < 2; ++c) {
    double mean = 0.0, var = 0.0;
    std::int64_t count = 0;
    for (std::int64_t n = 0; n < 4; ++n) {
      for (std::int64_t h = 0; h < 3; ++h) {
        for (std::int64_t w = 0; w < 3; ++w) {
          mean += y.at(n, c, h, w);
          ++count;
        }
      }
    }
    mean /= count;
    for (std::int64_t n = 0; n < 4; ++n) {
      for (std::int64_t h = 0; h < 3; ++h) {
        for (std::int64_t w = 0; w < 3; ++w) {
          var += (y.at(n, c, h, w) - mean) * (y.at(n, c, h, w) - mean);
        }
      }
    }
    var /= count;
    EXPECT_NEAR(mean, 0.0, 1e-4);
    EXPECT_NEAR(var, 1.0, 1e-2);
  }
}

TEST(BatchNorm, GammaBetaApplied) {
  const ComputeContext ctx;
  nn::BatchNorm2d bn(1);
  auto params = bn.params();
  params[0].value->fill(3.0f);   // gamma
  params[1].value->fill(-1.0f);  // beta
  Tensor x({2, 1, 2, 2});
  Rng rng(5);
  rng.fill_normal(x.span(), 0.0f, 1.0f);
  Tensor y;
  bn.forward(x, y, true, ctx);
  double mean = 0.0;
  for (std::int64_t i = 0; i < y.numel(); ++i) mean += y[i];
  EXPECT_NEAR(mean / y.numel(), -1.0, 1e-4);  // beta shifts the mean
}

TEST(BatchNorm, EvalUsesRunningStats) {
  const ComputeContext ctx;
  nn::BatchNorm2d bn(1, 1e-5f, /*momentum=*/0.0f);  // running = last batch
  Rng rng(7);
  Tensor x({8, 1, 4, 4});
  rng.fill_normal(x.span(), 2.0f, 3.0f);
  Tensor y;
  bn.forward(x, y, /*training=*/true, ctx);
  // Eval on the same data should now normalize with those captured stats.
  Tensor y2;
  bn.forward(x, y2, /*training=*/false, ctx);
  for (std::int64_t i = 0; i < y.numel(); ++i) {
    EXPECT_NEAR(y[i], y2[i], 2e-2);
  }
}

TEST(BatchNorm, BackwardWithoutForwardThrows) {
  const ComputeContext ctx;
  nn::BatchNorm2d bn(1);
  Tensor x({1, 1, 2, 2}), y({1, 1, 2, 2}), dy({1, 1, 2, 2}), dx;
  EXPECT_THROW(bn.backward(x, y, dy, dx, ctx), std::logic_error);
}

TEST(BatchNorm, BackwardAfterEvalForwardThrows) {
  // An eval forward of the same shape leaves xhat_/batch_inv_std_ from the
  // older training forward in place; backward must refuse them.
  const ComputeContext ctx;
  nn::BatchNorm2d bn(2);
  Rng rng(4);
  Tensor x({2, 2, 3, 3}), y, dx;
  rng.fill_normal(x.span(), 0.0f, 1.0f);
  bn.forward(x, y, /*training=*/true, ctx);
  bn.forward(x, y, /*training=*/false, ctx);
  const Tensor dy(y.shape(), 1.0f);
  EXPECT_THROW(bn.backward(x, y, dy, dx, ctx), std::logic_error);
  // A fresh training forward makes backward legal again.
  bn.forward(x, y, /*training=*/true, ctx);
  EXPECT_NO_THROW(bn.backward(x, y, dy, dx, ctx));
}

TEST(BatchNorm, FusedReluNameAndLiveness) {
  const nn::BatchNorm2d plain(8);
  const nn::BatchNorm2d fused(8, 1e-5f, 0.9f, /*fuse_relu=*/true);
  EXPECT_EQ(plain.name(), "bn(8)");
  EXPECT_EQ(fused.name(), "bn_relu(8)");
  // The fused backward masks on y > 0, so the planner must keep y alive;
  // neither reads x (xhat is cached).
  EXPECT_FALSE(plain.backward_reads_output());
  EXPECT_TRUE(fused.backward_reads_output());
  EXPECT_FALSE(fused.backward_reads_input());
}

TEST(BatchNorm, GradCheck) {
  nn::BatchNorm2d bn(3);
  testing::check_gradients(bn, {4, 3, 3, 3}, /*seed=*/11,
                           {.step = 1e-3, .rel_tol = 3e-2, .abs_tol = 2e-4});
}

TEST(BatchNorm, NonDecayParams) {
  nn::BatchNorm2d bn(4);
  for (const auto& p : bn.params()) EXPECT_FALSE(p.decay);
}

TEST(BatchNorm, RejectsWrongChannels) {
  const ComputeContext ctx;
  nn::BatchNorm2d bn(3);
  Tensor x({1, 4, 2, 2}), y;
  EXPECT_THROW(bn.forward(x, y, true, ctx), std::invalid_argument);
}

TEST(BatchNorm, InitResetsState) {
  nn::BatchNorm2d bn(2);
  auto params = bn.params();
  params[0].value->fill(9.0f);
  Rng rng(1);
  bn.init(rng);
  EXPECT_EQ((*params[0].value)[0], 1.0f);
  EXPECT_EQ((*params[1].value)[0], 0.0f);
}

// ---------------- Fused BN -> ReLU oracle ----------------
//
// BatchNorm2d(fuse_relu) must reproduce, byte for byte, a BatchNorm2d
// followed by a ReLU, and both must reproduce an in-test scalar reference
// that reduces one channel at a time (the layer interleaves channel
// reductions in groups; channel counts 1, 3, 5, 17 and 64 split those
// groups unevenly). Checked: the training y, dx, dgamma, dbeta, the running
// statistics, and an eval forward after them, at threads {1, 2, 3, 4, 8},
// on the portable kernel path and on the dispatched default.

/// Everything one BN(+ReLU) step produces.
struct BnTrace {
  std::vector<float> y, dx, dgamma, dbeta, running_mean, running_var, eval_y;
};

constexpr float kEps = 1e-5f, kMomentum = 0.9f;

std::vector<float> floats(const Tensor& t) {
  return {t.span().begin(), t.span().end()};
}

bool same_bits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

/// Random gamma/beta shared by every variant of one case.
void set_affine(nn::BatchNorm2d& bn, std::uint64_t seed) {
  auto params = bn.params();
  Rng rng(seed);
  rng.fill_normal(params[0].value->span(), 1.0f, 0.5f);  // gamma
  rng.fill_normal(params[1].value->span(), 0.0f, 0.5f);  // beta
}

BnTrace trace_of(nn::BatchNorm2d& bn, const Tensor& y, const Tensor& dx,
                 const Tensor& eval_y) {
  auto params = bn.params();
  return {floats(y),
          floats(dx),
          floats(*params[0].grad),
          floats(*params[1].grad),
          floats(bn.running_mean()),
          floats(bn.running_var()),
          floats(eval_y)};
}

BnTrace run_fused(std::int64_t c, const Tensor& x, const Tensor& dy,
                  const ComputeContext& ctx) {
  nn::BatchNorm2d bn(c, kEps, kMomentum, /*fuse_relu=*/true);
  set_affine(bn, 99);
  Tensor y, dx, eval_y;
  bn.forward(x, y, /*training=*/true, ctx);
  bn.backward(x, y, dy, dx, ctx);
  bn.forward(x, eval_y, /*training=*/false, ctx);
  return trace_of(bn, y, dx, eval_y);
}

BnTrace run_pair(std::int64_t c, const Tensor& x, const Tensor& dy,
                 const ComputeContext& ctx) {
  nn::BatchNorm2d bn(c, kEps, kMomentum);
  nn::ReLU relu;
  set_affine(bn, 99);
  Tensor pre, y, dpre, dx, eval_pre, eval_y;
  bn.forward(x, pre, /*training=*/true, ctx);
  relu.forward(pre, y, /*training=*/true, ctx);
  relu.backward(pre, y, dy, dpre, ctx);
  bn.backward(x, pre, dpre, dx, ctx);
  bn.forward(x, eval_pre, /*training=*/false, ctx);
  relu.forward(eval_pre, eval_y, /*training=*/false, ctx);
  return trace_of(bn, y, dx, eval_y);
}

/// The scalar reference: one channel at a time, double accumulators in
/// batch-then-spatial order, the layer's float expressions verbatim.
BnTrace run_scalar(std::int64_t c, const Tensor& x, const Tensor& dy) {
  nn::BatchNorm2d shape_only(c);
  set_affine(shape_only, 99);
  const auto params = shape_only.params();
  const Tensor& gamma = *params[0].value;
  const Tensor& beta = *params[1].value;
  const std::int64_t batch = x.shape()[0];
  const std::int64_t spatial = x.shape()[2] * x.shape()[3];
  const std::int64_t m = batch * spatial;
  const float inv_m = 1.0f / static_cast<float>(m);
  BnTrace t;
  t.y.resize(static_cast<std::size_t>(x.numel()));
  t.dx.resize(t.y.size());
  t.eval_y.resize(t.y.size());
  std::vector<float> xhat(t.y.size());
  const auto relu = [](float v) { return v > 0.0f ? v : 0.0f; };
  for (std::int64_t ch = 0; ch < c; ++ch) {
    const auto at = [&](std::int64_t n, std::int64_t s) {
      return static_cast<std::size_t>((n * c + ch) * spatial + s);
    };
    double acc = 0.0;
    for (std::int64_t n = 0; n < batch; ++n) {
      for (std::int64_t s = 0; s < spatial; ++s) acc += x.data()[at(n, s)];
    }
    const float mean = static_cast<float>(acc / static_cast<double>(m));
    double vacc = 0.0;
    for (std::int64_t n = 0; n < batch; ++n) {
      for (std::int64_t s = 0; s < spatial; ++s) {
        const double d = x.data()[at(n, s)] - mean;
        vacc += d * d;
      }
    }
    const float var = static_cast<float>(vacc / static_cast<double>(m));
    // The fresh layer's running statistics, read at run time like the
    // layer reads them (a folded constant would change which product the
    // compiler may contract into an FMA).
    const float rm0 = shape_only.running_mean()[ch];
    const float rv0 = shape_only.running_var()[ch];
    const float rm = kMomentum * rm0 + (1 - kMomentum) * mean;
    const float rv = kMomentum * rv0 + (1 - kMomentum) * var;
    t.running_mean.push_back(rm);
    t.running_var.push_back(rv);
    const float inv_std = 1.0f / std::sqrt(var + kEps);
    const float g = gamma[ch], b = beta[ch];
    for (std::int64_t n = 0; n < batch; ++n) {
      for (std::int64_t s = 0; s < spatial; ++s) {
        const float h = (x.data()[at(n, s)] - mean) * inv_std;
        xhat[at(n, s)] = h;
        const float v = g * h + b;
        t.y[at(n, s)] = relu(v);
      }
    }
    double sum_dy = 0.0, sum_dy_xhat = 0.0;
    for (std::int64_t n = 0; n < batch; ++n) {
      for (std::int64_t s = 0; s < spatial; ++s) {
        const float gv = t.y[at(n, s)] > 0.0f ? dy.data()[at(n, s)] : 0.0f;
        sum_dy += gv;
        sum_dy_xhat += static_cast<double>(gv) * xhat[at(n, s)];
      }
    }
    t.dbeta.push_back(static_cast<float>(sum_dy));
    t.dgamma.push_back(static_cast<float>(sum_dy_xhat));
    const float coeff = g * inv_std;
    const auto sdy = static_cast<float>(sum_dy);
    const auto sdyx = static_cast<float>(sum_dy_xhat);
    const float eval_inv_std = 1.0f / std::sqrt(rv + kEps);
    for (std::int64_t n = 0; n < batch; ++n) {
      for (std::int64_t s = 0; s < spatial; ++s) {
        const std::size_t i = at(n, s);
        const float gv = t.y[i] > 0.0f ? dy.data()[i] : 0.0f;
        t.dx[i] = coeff * (gv - inv_m * (sdy + xhat[i] * sdyx));
        const float h = (x.data()[i] - rm) * eval_inv_std;
        const float v = g * h + b;
        t.eval_y[i] = relu(v);
      }
    }
  }
  return t;
}

void expect_same(const BnTrace& a, const BnTrace& b, const std::string& what) {
  EXPECT_TRUE(same_bits(a.y, b.y)) << what << ": y";
  EXPECT_TRUE(same_bits(a.dx, b.dx)) << what << ": dx";
  EXPECT_TRUE(same_bits(a.dgamma, b.dgamma)) << what << ": dgamma";
  EXPECT_TRUE(same_bits(a.dbeta, b.dbeta)) << what << ": dbeta";
  EXPECT_TRUE(same_bits(a.running_mean, b.running_mean))
      << what << ": running_mean";
  EXPECT_TRUE(same_bits(a.running_var, b.running_var))
      << what << ": running_var";
  EXPECT_TRUE(same_bits(a.eval_y, b.eval_y)) << what << ": eval y";
}

TEST(BnReluOracle, FusedMatchesPairAndScalarReferenceBitwise) {
  for (const std::int64_t c : {1, 3, 5, 17, 64}) {
    Tensor x({3, c, 5, 7}), dy({3, c, 5, 7});
    Rng rng(static_cast<std::uint64_t>(1000 + c));
    rng.fill_normal(x.span(), 0.3f, 1.5f);
    rng.fill_normal(dy.span(), 0.0f, 1.0f);
    const BnTrace ref = run_scalar(c, x, dy);
    for (const bool portable : {true, false}) {
      if (portable) {
        kernels::force(kernels::Isa::kPortable);
      } else {
        kernels::clear_force();
      }
      for (const std::size_t threads : {1u, 2u, 3u, 4u, 8u}) {
        const ComputeContext ctx(threads);
        const std::string what = "c=" + std::to_string(c) + " threads=" +
                                 std::to_string(threads) +
                                 (portable ? " portable" : " default");
        expect_same(run_fused(c, x, dy, ctx), ref, "fused vs scalar " + what);
        expect_same(run_pair(c, x, dy, ctx), ref, "pair vs scalar " + what);
      }
    }
  }
  kernels::clear_force();
}

TEST(BnReluOracle, FusedGradCheck) {
  nn::BatchNorm2d bn(5, kEps, kMomentum, /*fuse_relu=*/true);
  testing::check_gradients(bn, {4, 5, 3, 3}, /*seed=*/17,
                           {.step = 1e-3, .rel_tol = 3e-2, .abs_tol = 2e-4});
}

// ---------------- LRN ----------------

TEST(LRN, ForwardMatchesFormulaSingleChannelWindow) {
  // With n=1 the window is just the element itself.
  const ComputeContext ctx;
  nn::LRN lrn(1, 2.0f, 0.75f, 1.0f);
  Tensor x({1, 1, 1, 1}, std::vector<float>{2.0f});
  Tensor y;
  lrn.forward(x, y, false, ctx);
  const float expected = 2.0f * std::pow(1.0f + 2.0f * 4.0f, -0.75f);
  EXPECT_NEAR(y[0], expected, 1e-6);
}

TEST(LRN, WindowSpansNeighbouringChannels) {
  const ComputeContext ctx;
  nn::LRN lrn(3, 3.0f, 1.0f, 1.0f);  // alpha/n = 1, beta = 1
  Tensor x({1, 3, 1, 1}, std::vector<float>{1, 2, 3});
  Tensor y;
  lrn.forward(x, y, false, ctx);
  // channel 1 window = {1,2,3}: scale = 1 + (1+4+9) = 15.
  EXPECT_NEAR(y.at(0, 1, 0, 0), 2.0f / 15.0f, 1e-6);
  // channel 0 window = {1,2}: scale = 1 + 5 = 6.
  EXPECT_NEAR(y.at(0, 0, 0, 0), 1.0f / 6.0f, 1e-6);
}

TEST(LRN, GradCheck) {
  nn::LRN lrn(5, 1e-2f, 0.75f, 1.0f);
  testing::check_gradients(lrn, {2, 6, 3, 3}, /*seed=*/13,
                           {.step = 1e-3, .rel_tol = 3e-2, .abs_tol = 2e-4});
}

TEST(LRN, RejectsEvenWindow) {
  EXPECT_THROW(nn::LRN(4), std::invalid_argument);
  EXPECT_THROW(nn::LRN(0), std::invalid_argument);
}

TEST(LRN, HasNoParams) {
  nn::LRN lrn;
  EXPECT_TRUE(lrn.params().empty());
}

}  // namespace
}  // namespace minsgd

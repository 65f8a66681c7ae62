#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "lars_reference.hpp"
#include "nn/linear.hpp"
#include "optim/lars.hpp"
#include "optim/schedule.hpp"
#include "optim/sgd.hpp"
#include "tensor/context.hpp"
#include "tensor/kernels/dispatch.hpp"
#include "tensor/ops.hpp"
#include "tensor/rng.hpp"

namespace minsgd {
namespace {

// Builds a single-parameter "layer" for optimizer math tests.
struct FakeParam {
  Tensor w;
  Tensor g;
  std::vector<nn::ParamRef> refs;
  explicit FakeParam(const std::vector<float>& wv,
                     const std::vector<float>& gv, bool decay = true)
      : w({static_cast<std::int64_t>(wv.size())}, wv),
        g({static_cast<std::int64_t>(gv.size())}, gv) {
    refs.push_back({"p", &w, &g, decay});
  }
};

// ---------------- schedules ----------------

TEST(Schedules, ConstantLr) {
  optim::ConstantLr s(0.1);
  EXPECT_DOUBLE_EQ(s.lr(0), 0.1);
  EXPECT_DOUBLE_EQ(s.lr(1000000), 0.1);
}

TEST(Schedules, PolyPowerTwoMatchesPaperFormula) {
  optim::PolyLr s(2.0, 100, 2.0);
  EXPECT_DOUBLE_EQ(s.lr(0), 2.0);
  EXPECT_NEAR(s.lr(50), 2.0 * 0.25, 1e-12);
  EXPECT_NEAR(s.lr(90), 2.0 * 0.01, 1e-12);
  EXPECT_DOUBLE_EQ(s.lr(100), 0.0);
  EXPECT_DOUBLE_EQ(s.lr(150), 0.0);
}

TEST(Schedules, PolyPowerOneIsLinear) {
  optim::PolyLr s(1.0, 10, 1.0);
  EXPECT_NEAR(s.lr(5), 0.5, 1e-12);
}

TEST(Schedules, StepDecays) {
  optim::StepLr s(1.0, 10, 0.1);
  EXPECT_DOUBLE_EQ(s.lr(9), 1.0);
  EXPECT_NEAR(s.lr(10), 0.1, 1e-12);
  EXPECT_NEAR(s.lr(25), 0.01, 1e-12);
}

TEST(Schedules, WarmupRampsLinearlyToInner) {
  auto inner = std::make_unique<optim::ConstantLr>(1.0);
  optim::WarmupLr s(std::move(inner), 10, 0.0);
  EXPECT_NEAR(s.lr(0), 0.1, 1e-12);
  EXPECT_NEAR(s.lr(4), 0.5, 1e-12);
  EXPECT_NEAR(s.lr(9), 1.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.lr(10), 1.0);
}

TEST(Schedules, WarmupStartsFromStartLr) {
  auto inner = std::make_unique<optim::ConstantLr>(2.0);
  optim::WarmupLr s(std::move(inner), 4, 1.0);
  EXPECT_NEAR(s.lr(0), 1.25, 1e-12);
  EXPECT_NEAR(s.lr(3), 2.0, 1e-12);
}

TEST(Schedules, WarmupIsMonotoneDuringRamp) {
  auto inner = std::make_unique<optim::PolyLr>(3.2, 1000, 2.0);
  optim::WarmupLr s(std::move(inner), 50, 0.05);
  for (int i = 1; i < 50; ++i) EXPECT_GE(s.lr(i), s.lr(i - 1));
}

TEST(Schedules, InvalidConfigsThrow) {
  EXPECT_THROW(optim::ConstantLr(0.0), std::invalid_argument);
  EXPECT_THROW(optim::PolyLr(1.0, 0), std::invalid_argument);
  EXPECT_THROW(optim::PolyLr(1.0, 10, -1.0), std::invalid_argument);
  EXPECT_THROW(optim::StepLr(1.0, 0), std::invalid_argument);
  EXPECT_THROW(optim::WarmupLr(nullptr, 5), std::invalid_argument);
}

TEST(Schedules, LinearScalingRule) {
  // Paper: B -> kB implies eta -> k*eta.
  EXPECT_DOUBLE_EQ(optim::linear_scaled_lr(0.02, 512, 4096), 0.16);
  EXPECT_DOUBLE_EQ(optim::linear_scaled_lr(0.1, 256, 256), 0.1);
}

TEST(Schedules, IterationsForEpochsMatchesTable2) {
  // Table 2 rows: ImageNet n=1.28M, 100 epochs.
  const std::int64_t n = 1'280'000;
  EXPECT_EQ(optim::iterations_for_epochs(100, n, 512), 250'000);
  EXPECT_EQ(optim::iterations_for_epochs(100, n, 1024), 125'000);
  EXPECT_EQ(optim::iterations_for_epochs(100, n, 8192), 15'625);
  EXPECT_EQ(optim::iterations_for_epochs(100, n, 1'280'000), 100);
}

TEST(Schedules, IterationsCeilOnNonDivisible) {
  EXPECT_EQ(optim::iterations_for_epochs(1, 10, 3), 4);
}

// ---------------- SGD ----------------

TEST(Sgd, PlainStepWithoutMomentum) {
  const ComputeContext ctx;
  FakeParam p({1.0f}, {0.5f});
  optim::Sgd sgd({.momentum = 0.0, .weight_decay = 0.0});
  sgd.step(p.refs, 0.1, ctx);
  EXPECT_NEAR(p.w[0], 1.0f - 0.1f * 0.5f, 1e-7);
}

TEST(Sgd, WeightDecayAddsToGradient) {
  const ComputeContext ctx;
  FakeParam p({2.0f}, {0.0f});
  optim::Sgd sgd({.momentum = 0.0, .weight_decay = 0.1});
  sgd.step(p.refs, 1.0, ctx);
  EXPECT_NEAR(p.w[0], 2.0f - 0.1f * 2.0f, 1e-7);
}

TEST(Sgd, NonDecayParamSkipsWeightDecay) {
  const ComputeContext ctx;
  FakeParam p({2.0f}, {0.0f}, /*decay=*/false);
  optim::Sgd sgd({.momentum = 0.0, .weight_decay = 0.1});
  sgd.step(p.refs, 1.0, ctx);
  EXPECT_EQ(p.w[0], 2.0f);
}

TEST(Sgd, MomentumAccumulates) {
  const ComputeContext ctx;
  FakeParam p({0.0f}, {1.0f});
  optim::Sgd sgd({.momentum = 0.5, .weight_decay = 0.0});
  sgd.step(p.refs, 1.0, ctx);   // v=1, w=-1
  sgd.step(p.refs, 1.0, ctx);   // v=1.5, w=-2.5
  EXPECT_NEAR(p.w[0], -2.5f, 1e-6);
}

TEST(Sgd, ResetClearsVelocity) {
  const ComputeContext ctx;
  FakeParam p({0.0f}, {1.0f});
  optim::Sgd sgd({.momentum = 0.9, .weight_decay = 0.0});
  sgd.step(p.refs, 1.0, ctx);
  sgd.reset();
  p.w[0] = 0.0f;
  sgd.step(p.refs, 1.0, ctx);
  EXPECT_NEAR(p.w[0], -1.0f, 1e-6);  // no leftover momentum
}

TEST(Sgd, RejectsBadConfig) {
  EXPECT_THROW(optim::Sgd({.momentum = 1.0}), std::invalid_argument);
  EXPECT_THROW(optim::Sgd({.momentum = -0.1}), std::invalid_argument);
  EXPECT_THROW(optim::Sgd({.weight_decay = -1.0}), std::invalid_argument);
}

TEST(Sgd, RejectsChangedParamList) {
  const ComputeContext ctx;
  FakeParam p({1.0f}, {1.0f});
  optim::Sgd sgd;
  sgd.step(p.refs, 0.1, ctx);
  FakeParam q({1.0f, 2.0f}, {1.0f, 1.0f});
  std::vector<nn::ParamRef> two = {p.refs[0], q.refs[0]};
  EXPECT_THROW(sgd.step(two, 0.1, ctx), std::invalid_argument);
}

// ---------------- LARS ----------------

TEST(Lars, TrustRatioMatchesFormula) {
  // w = [3, 4] (norm 5), g = [0.6, 0.8] (norm 1), wd = 0.
  const ComputeContext ctx;
  FakeParam p({3.0f, 4.0f}, {0.6f, 0.8f});
  optim::Lars lars({.trust_coeff = 0.01,
                    .momentum = 0.0,
                    .weight_decay = 0.0,
                    .eps = 0.0});
  lars.step(p.refs, 1.0, ctx);
  ASSERT_EQ(lars.last_local_lrs().size(), 1u);
  EXPECT_NEAR(lars.last_local_lrs()[0], 0.01 * 5.0 / 1.0, 1e-6);
  // Update = lr * local * g.
  EXPECT_NEAR(p.w[0], 3.0f - 0.05f * 0.6f, 1e-6);
}

TEST(Lars, WeightDecayEntersDenominatorAndUpdate) {
  const ComputeContext ctx;
  FakeParam p({3.0f, 4.0f}, {0.6f, 0.8f});
  const double wd = 0.1;
  optim::Lars lars({.trust_coeff = 0.01,
                    .momentum = 0.0,
                    .weight_decay = wd,
                    .eps = 0.0});
  lars.step(p.refs, 1.0, ctx);
  const double local = 0.01 * 5.0 / (1.0 + wd * 5.0);
  EXPECT_NEAR(lars.last_local_lrs()[0], local, 1e-9);
  EXPECT_NEAR(p.w[0], 3.0f - static_cast<float>(local * (0.6 + wd * 3.0)),
              1e-6);
}

TEST(Lars, NonDecayParamFollowsGlobalLr) {
  const ComputeContext ctx;
  FakeParam p({2.0f}, {1.0f}, /*decay=*/false);
  optim::Lars lars({.trust_coeff = 0.001, .momentum = 0.0});
  lars.step(p.refs, 0.5, ctx);
  EXPECT_NEAR(p.w[0], 2.0f - 0.5f, 1e-6);  // plain step, no trust scaling
  EXPECT_DOUBLE_EQ(lars.last_local_lrs()[0], 0.0);
}

TEST(Lars, ZeroWeightNormFallsBackToGlobalLr) {
  const ComputeContext ctx;
  FakeParam p({0.0f}, {1.0f});
  optim::Lars lars({.trust_coeff = 0.001, .momentum = 0.0,
                    .weight_decay = 0.0});
  lars.step(p.refs, 0.1, ctx);
  EXPECT_NEAR(p.w[0], -0.1f, 1e-6);
}

TEST(Lars, DampsLayersWithLargeGradients) {
  // Two layers, same weights, gradient 100x larger on the second: the
  // second's effective step must be ~100x smaller relative to its gradient.
  const ComputeContext ctx;
  FakeParam a({1.0f}, {0.01f});
  FakeParam b({1.0f}, {1.0f});
  std::vector<nn::ParamRef> both = {a.refs[0], b.refs[0]};
  optim::Lars lars({.trust_coeff = 0.1, .momentum = 0.0,
                    .weight_decay = 0.0});
  lars.step(both, 1.0, ctx);
  const auto& locals = lars.last_local_lrs();
  EXPECT_NEAR(locals[0] / locals[1], 100.0, 1.0);
}

TEST(Lars, MomentumOnScaledUpdate) {
  const ComputeContext ctx;
  FakeParam p({3.0f, 4.0f}, {0.6f, 0.8f});
  optim::Lars lars({.trust_coeff = 0.01, .momentum = 0.5,
                    .weight_decay = 0.0, .eps = 0.0});
  lars.step(p.refs, 1.0, ctx);
  const float w_after_1 = p.w[0];
  lars.step(p.refs, 1.0, ctx);
  // Second velocity includes half of the first: step grows.
  EXPECT_LT(p.w[0], w_after_1);
}

TEST(Lars, RejectsBadConfig) {
  EXPECT_THROW(optim::Lars({.trust_coeff = 0.0}), std::invalid_argument);
  EXPECT_THROW(optim::Lars({.momentum = 1.5}), std::invalid_argument);
  EXPECT_THROW(optim::Lars({.weight_decay = -0.1}), std::invalid_argument);
}

TEST(Lars, ResetClearsState) {
  const ComputeContext ctx;
  FakeParam p({1.0f}, {1.0f});
  optim::Lars lars;
  lars.step(p.refs, 0.1, ctx);
  lars.reset();
  EXPECT_TRUE(lars.last_local_lrs().empty());
}

// ---------------- LARC clipping ----------------

TEST(LarcClip, CapsLocalMultiplierAtOne) {
  const ComputeContext ctx;
  Tensor w({2}, std::vector<float>{30.0f, 40.0f});    // ||w|| = 50
  Tensor g({2}, std::vector<float>{0.006f, 0.008f});  // ||g|| = 0.01
  std::vector<nn::ParamRef> p{{"a", &w, &g, true}};
  optim::Lars unclipped({.trust_coeff = 0.1, .momentum = 0.0,
                         .weight_decay = 0.0, .eps = 0.0});
  unclipped.step(p, 1.0, ctx);
  EXPECT_GT(unclipped.last_local_lrs()[0], 100.0);  // 0.1 * 50/0.01 = 500

  Tensor w2({2}, std::vector<float>{30.0f, 40.0f});
  Tensor g2({2}, std::vector<float>{0.006f, 0.008f});
  std::vector<nn::ParamRef> p2{{"a", &w2, &g2, true}};
  optim::Lars clipped({.trust_coeff = 0.1, .momentum = 0.0,
                       .weight_decay = 0.0, .eps = 0.0,
                       .adapt_non_decay_params = false, .clip = true});
  clipped.step(p2, 1.0, ctx);
  EXPECT_DOUBLE_EQ(clipped.last_local_lrs()[0], 1.0);
}

TEST(LarcClip, LeavesSmallMultipliersAlone) {
  const ComputeContext ctx;
  Tensor w({2}, std::vector<float>{3.0f, 4.0f});
  Tensor g({2}, std::vector<float>{30.0f, 40.0f});
  std::vector<nn::ParamRef> p{{"a", &w, &g, true}};
  optim::Lars clipped({.trust_coeff = 0.1, .momentum = 0.0,
                       .weight_decay = 0.0, .eps = 0.0,
                       .adapt_non_decay_params = false, .clip = true});
  clipped.step(p, 1.0, ctx);
  EXPECT_NEAR(clipped.last_local_lrs()[0], 0.01, 1e-9);  // 0.1 * 5/50
}

// ---------------- LARS oracle ----------------

/// A parameter list spanning the reduction geometries: two 16-chunk tensors
/// (the second with a short last chunk), a 7-chunk one, single-chunk ones,
/// a non-decay bias and a zero tensor.
struct OracleParams {
  std::vector<Tensor> values, grads;
  std::vector<nn::ParamRef> refs;

  explicit OracleParams(std::uint64_t seed) {
    const std::int64_t sizes[] = {16 * 16384, 16 * 16384 + 15, 100000, 4097,
                                  17, 64};
    Rng rng(seed);
    for (const std::int64_t n : sizes) {
      values.emplace_back(Shape({n}));
      grads.emplace_back(Shape({n}));
      rng.fill_normal(values.back().span(), 0.0f, 0.05f);
      rng.fill_normal(grads.back().span(), 0.0f, 0.002f);
    }
    values[5].zero();  // w_norm == 0: falls back to the global rate
    for (std::size_t i = 0; i < values.size(); ++i) {
      refs.push_back({"p", &values[i], &grads[i], /*decay=*/i != 4});
    }
  }
};

bool same_bits(const Tensor& a, const Tensor& b) {
  if (a.numel() != b.numel()) return false;
  for (std::int64_t i = 0; i < a.numel(); ++i) {
    if (std::bit_cast<std::uint32_t>(a[i]) !=
        std::bit_cast<std::uint32_t>(b[i])) {
      return false;
    }
  }
  return true;
}

TEST(LarsOracle, MatchesTwoNormReferenceBitwise) {
  const optim::LarsConfig configs[] = {
      {}, {.trust_coeff = 0.02, .weight_decay = 0.0001, .clip = true}};
  for (const optim::LarsConfig& config : configs) {
    OracleParams want(7);
    testing::LarsReference reference(config);
    std::vector<std::vector<double>> want_locals;
    for (int s = 0; s < 3; ++s) {
      reference.step(want.refs, 0.5 - 0.1 * s);
      want_locals.push_back(reference.last_local_lrs());
    }
    for (kernels::Isa isa : kernels::kAllIsas) {
      if (!kernels::supported(isa)) continue;
      kernels::force(isa);
      for (const std::size_t t : {1u, 2u, 3u, 4u}) {
        const ComputeContext ctx(t);
        OracleParams got(7);
        optim::Lars lars(config);
        for (int s = 0; s < 3; ++s) {
          lars.step(got.refs, 0.5 - 0.1 * s, ctx);
          const auto& locals = lars.last_local_lrs();
          ASSERT_EQ(locals.size(), want_locals[s].size());
          for (std::size_t i = 0; i < locals.size(); ++i) {
            EXPECT_EQ(std::bit_cast<std::uint64_t>(locals[i]),
                      std::bit_cast<std::uint64_t>(want_locals[s][i]))
                << "local lr " << i << " step " << s
                << " isa=" << kernels::to_string(isa) << " t=" << t;
          }
        }
        for (std::size_t i = 0; i < got.values.size(); ++i) {
          EXPECT_TRUE(same_bits(got.values[i], want.values[i]))
              << "weights of p" << i << " isa=" << kernels::to_string(isa)
              << " t=" << t;
        }
      }
    }
    kernels::clear_force();
  }
}

}  // namespace
}  // namespace minsgd

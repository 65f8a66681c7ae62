// Cross-module property tests: algebraic invariants the implementation
// must satisfy regardless of configuration.
#include <gtest/gtest.h>

#include "comm/cluster.hpp"
#include "data/synthetic.hpp"
#include "nn/conv.hpp"
#include "nn/loss.hpp"
#include "optim/lars.hpp"
#include "optim/schedule.hpp"
#include "tensor/ops.hpp"
#include "tensor/rng.hpp"

namespace minsgd {
namespace {

// ---------------- LARS invariances ----------------

TEST(LarsProperties, TrustRatioScaleInvariant) {
  // Scaling w and g by the same c > 0 leaves the local LR unchanged
  // (with weight decay 0): LARS adapts to geometry, not magnitude.
  const ComputeContext ctx;
  for (float c : {0.5f, 2.0f, 100.0f}) {
    Tensor w1({3}, std::vector<float>{1, 2, 2});
    Tensor g1({3}, std::vector<float>{0.3f, 0.0f, 0.4f});
    Tensor w2 = w1, g2 = g1;
    scale(c, w2.span());
    scale(c, g2.span());
    std::vector<nn::ParamRef> p1{{"a", &w1, &g1, true}};
    std::vector<nn::ParamRef> p2{{"a", &w2, &g2, true}};
    optim::Lars l1({.trust_coeff = 0.02, .momentum = 0.0,
                    .weight_decay = 0.0, .eps = 0.0});
    optim::Lars l2 = l1;
    l1.step(p1, 0.1, ctx);
    l2.step(p2, 0.1, ctx);
    EXPECT_NEAR(l1.last_local_lrs()[0], l2.last_local_lrs()[0], 1e-6)
        << "c = " << c;
  }
}

TEST(LarsProperties, UpdateDirectionMatchesGradient) {
  // With momentum 0 and wd 0, the update must be antiparallel to g.
  const ComputeContext ctx;
  Rng rng(5);
  Tensor w({16}), g({16});
  rng.fill_normal(w.span(), 0.0f, 1.0f);
  rng.fill_normal(g.span(), 0.0f, 1.0f);
  Tensor w_before = w;
  std::vector<nn::ParamRef> p{{"a", &w, &g, true}};
  optim::Lars lars({.trust_coeff = 0.01, .momentum = 0.0,
                    .weight_decay = 0.0});
  lars.step(p, 0.5, ctx);
  // delta = w_before - w must be a positive multiple of g.
  std::vector<float> delta(16);
  for (int i = 0; i < 16; ++i) delta[i] = w_before[i] - w[i];
  const double cos = dot(delta, g.span()) /
                     (l2_norm(delta) * l2_norm(g.span()));
  EXPECT_NEAR(cos, 1.0, 1e-5);
}

// ---------------- softmax-CE invariances ----------------

TEST(LossProperties, ShiftInvariantPerRow) {
  const ComputeContext ctx;
  nn::SoftmaxCrossEntropy loss;
  Rng rng(7);
  Tensor logits({3, 5});
  rng.fill_normal(logits.span(), 0.0f, 2.0f);
  std::vector<std::int32_t> labels{0, 2, 4};
  Tensor grad1, grad2;
  const auto r1 = loss.forward_backward(logits, labels, &grad1, ctx);
  for (std::int64_t r = 0; r < 3; ++r) {
    for (std::int64_t c = 0; c < 5; ++c) {
      logits.at(r, c) += 37.5f;  // constant shift per row
    }
  }
  const auto r2 = loss.forward_backward(logits, labels, &grad2, ctx);
  EXPECT_NEAR(r1.loss, r2.loss, 1e-4);
  for (std::int64_t i = 0; i < grad1.numel(); ++i) {
    EXPECT_NEAR(grad1[i], grad2[i], 1e-5);
  }
}

TEST(LossProperties, LossLowerBoundedByZero) {
  const ComputeContext ctx;
  nn::SoftmaxCrossEntropy loss;
  Rng rng(11);
  for (int trial = 0; trial < 20; ++trial) {
    Tensor logits({4, 6});
    rng.fill_normal(logits.span(), 0.0f, 5.0f);
    std::vector<std::int32_t> labels;
    for (int i = 0; i < 4; ++i) {
      labels.push_back(static_cast<std::int32_t>(rng.uniform_int(6)));
    }
    EXPECT_GE(loss.forward_backward(logits, labels, nullptr, ctx).loss, 0.0);
  }
}

// ---------------- conv algebra ----------------

TEST(ConvProperties, LinearInInputWithoutBias) {
  const ComputeContext ctx;
  nn::Conv2d conv(2, 3, 3, 1, 1, /*bias=*/false);
  Rng rng(13);
  conv.init(rng);
  Tensor x({1, 2, 5, 5});
  rng.fill_normal(x.span(), 0.0f, 1.0f);
  Tensor y1, y2;
  conv.forward(x, y1, false, ctx);
  scale(2.5f, x.span());
  conv.forward(x, y2, false, ctx);
  for (std::int64_t i = 0; i < y1.numel(); ++i) {
    EXPECT_NEAR(2.5f * y1[i], y2[i], 1e-4);
  }
}

TEST(ConvProperties, GroupedConvEqualsTwoSplitConvs) {
  // A groups=2 conv must equal running each half independently.
  const ComputeContext ctx;
  const std::int64_t c_in = 4, c_out = 6, k = 3;
  nn::Conv2d grouped(c_in, c_out, k, 1, 1, /*bias=*/false, /*groups=*/2);
  Rng rng(17);
  grouped.init(rng);

  nn::Conv2d half_a(c_in / 2, c_out / 2, k, 1, 1, false);
  nn::Conv2d half_b(c_in / 2, c_out / 2, k, 1, 1, false);
  // Copy the grouped weights into the halves (OIHW; group-major O).
  const std::int64_t per_half = (c_out / 2) * (c_in / 2) * k * k;
  copy(grouped.weight().span().subspan(0, per_half), half_a.weight().span());
  copy(grouped.weight().span().subspan(per_half, per_half),
       half_b.weight().span());

  Tensor x({2, c_in, 6, 6});
  rng.fill_normal(x.span(), 0.0f, 1.0f);
  Tensor xa({2, c_in / 2, 6, 6}), xb({2, c_in / 2, 6, 6});
  for (std::int64_t n = 0; n < 2; ++n) {
    for (std::int64_t c = 0; c < c_in / 2; ++c) {
      for (std::int64_t i = 0; i < 36; ++i) {
        xa.data()[(n * 2 + c) * 36 + i] = x.data()[(n * 4 + c) * 36 + i];
        xb.data()[(n * 2 + c) * 36 + i] = x.data()[(n * 4 + 2 + c) * 36 + i];
      }
    }
  }
  Tensor y, ya, yb;
  grouped.forward(x, y, false, ctx);
  half_a.forward(xa, ya, false, ctx);
  half_b.forward(xb, yb, false, ctx);
  for (std::int64_t n = 0; n < 2; ++n) {
    for (std::int64_t c = 0; c < c_out / 2; ++c) {
      for (std::int64_t i = 0; i < 36; ++i) {
        EXPECT_NEAR(y.data()[(n * 6 + c) * 36 + i],
                    ya.data()[(n * 3 + c) * 36 + i], 1e-4);
        EXPECT_NEAR(y.data()[(n * 6 + 3 + c) * 36 + i],
                    yb.data()[(n * 3 + c) * 36 + i], 1e-4);
      }
    }
  }
}

// ---------------- collective equivalences ----------------

class CollectiveEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(CollectiveEquivalence, ReduceThenBroadcastEqualsAllreduce) {
  const int world = GetParam();
  comm::SimCluster cluster(world);
  cluster.run([&](comm::Communicator& c) {
    Rng rng(static_cast<std::uint64_t>(c.rank()) + 1);
    std::vector<float> a(33);
    rng.fill_uniform(a, -1.0f, 1.0f);
    std::vector<float> b = a;
    c.allreduce_sum(a, comm::AllreduceAlgo::kRing);
    c.reduce_sum(b, 0);
    c.broadcast(b, 0);
    for (std::size_t i = 0; i < a.size(); ++i) {
      ASSERT_NEAR(a[i], b[i], 1e-4);
    }
  });
}

INSTANTIATE_TEST_SUITE_P(Worlds, CollectiveEquivalence,
                         ::testing::Values(1, 2, 3, 5, 8));

// ---------------- schedules ----------------

class PolyMonotone : public ::testing::TestWithParam<double> {};

TEST_P(PolyMonotone, NonIncreasing) {
  optim::PolyLr s(1.0, 200, GetParam());
  for (int i = 1; i <= 200; ++i) {
    EXPECT_LE(s.lr(i), s.lr(i - 1)) << "at " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Powers, PolyMonotone,
                         ::testing::Values(0.5, 1.0, 2.0, 4.0));

// ---------------- dataset class structure ----------------

TEST(DatasetProperties, SamplesCorrelateWithOwnPrototype) {
  data::SynthConfig cfg;
  cfg.classes = 4;
  cfg.resolution = 12;
  cfg.train_size = 512;
  cfg.test_size = 64;
  cfg.noise = 0.5f;
  cfg.max_shift = 0;  // no shift so correlation is direct
  data::SyntheticImageNet ds(cfg);
  std::vector<float> img(static_cast<std::size_t>(ds.image_numel()));
  int checked = 0;
  for (std::int64_t i = 0; i < 64; ++i) {
    const auto label = ds.get_train(i, img);
    double own = 0.0;
    double other_max = -1e30;
    for (std::int64_t c = 0; c < cfg.classes; ++c) {
      const auto& proto = ds.prototype(c);
      const double corr =
          dot(img, std::span<const float>(proto.data(),
                                          static_cast<std::size_t>(
                                              proto.numel())));
      if (c == label) own = corr;
      else other_max = std::max(other_max, corr);
    }
    if (own > other_max) ++checked;
  }
  // The signal must dominate for the vast majority of samples.
  EXPECT_GE(checked, 55);
}

}  // namespace
}  // namespace minsgd

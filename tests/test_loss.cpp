#include <gtest/gtest.h>

#include <cmath>

#include "nn/loss.hpp"
#include "tensor/rng.hpp"

namespace minsgd {
namespace {

TEST(SoftmaxCrossEntropy, UniformLogitsGiveLogC) {
  const ComputeContext ctx;
  nn::SoftmaxCrossEntropy loss;
  Tensor logits({2, 4});  // all zeros
  std::vector<std::int32_t> labels{0, 3};
  const auto res = loss.forward_backward(logits, labels, nullptr, ctx);
  EXPECT_NEAR(res.loss, std::log(4.0), 1e-6);
}

TEST(SoftmaxCrossEntropy, ConfidentCorrectHasLowLoss) {
  const ComputeContext ctx;
  nn::SoftmaxCrossEntropy loss;
  Tensor logits({1, 3}, std::vector<float>{10.0f, 0.0f, 0.0f});
  std::vector<std::int32_t> labels{0};
  const auto res = loss.forward_backward(logits, labels, nullptr, ctx);
  EXPECT_LT(res.loss, 1e-3);
  EXPECT_EQ(res.correct, 1);
}

TEST(SoftmaxCrossEntropy, CountsTopOneCorrect) {
  const ComputeContext ctx;
  nn::SoftmaxCrossEntropy loss;
  Tensor logits({3, 2}, std::vector<float>{1, 0, 0, 1, 5, -5});
  std::vector<std::int32_t> labels{0, 0, 0};
  const auto res = loss.forward_backward(logits, labels, nullptr, ctx);
  EXPECT_EQ(res.correct, 2);
}

TEST(SoftmaxCrossEntropy, GradientIsProbMinusOneHotOverBatch) {
  const ComputeContext ctx;
  nn::SoftmaxCrossEntropy loss;
  Tensor logits({1, 2}, std::vector<float>{0.0f, 0.0f});
  std::vector<std::int32_t> labels{1};
  Tensor dlogits;
  loss.forward_backward(logits, labels, &dlogits, ctx);
  EXPECT_NEAR(dlogits[0], 0.5f, 1e-6);
  EXPECT_NEAR(dlogits[1], -0.5f, 1e-6);
}

TEST(SoftmaxCrossEntropy, GradientMatchesFiniteDifference) {
  const ComputeContext ctx;
  nn::SoftmaxCrossEntropy loss;
  Rng rng(17);
  Tensor logits({4, 5});
  rng.fill_normal(logits.span(), 0.0f, 2.0f);
  std::vector<std::int32_t> labels{3, 0, 4, 1};
  Tensor dlogits;
  const auto base = loss.forward_backward(logits, labels, &dlogits, ctx);
  (void)base;
  const double h = 1e-3;
  for (std::int64_t i = 0; i < logits.numel(); i += 3) {
    const float orig = logits[i];
    logits[i] = orig + static_cast<float>(h);
    const double lp = loss.forward_backward(logits, labels, nullptr, ctx).loss;
    logits[i] = orig - static_cast<float>(h);
    const double lm = loss.forward_backward(logits, labels, nullptr, ctx).loss;
    logits[i] = orig;
    EXPECT_NEAR(dlogits[i], (lp - lm) / (2 * h), 1e-3);
  }
}

TEST(SoftmaxCrossEntropy, GradientSumsToZeroPerRow) {
  const ComputeContext ctx;
  nn::SoftmaxCrossEntropy loss;
  Rng rng(23);
  Tensor logits({2, 6});
  rng.fill_normal(logits.span(), 0.0f, 1.0f);
  std::vector<std::int32_t> labels{2, 5};
  Tensor dlogits;
  loss.forward_backward(logits, labels, &dlogits, ctx);
  for (std::int64_t r = 0; r < 2; ++r) {
    double s = 0.0;
    for (std::int64_t c = 0; c < 6; ++c) s += dlogits.at(r, c);
    EXPECT_NEAR(s, 0.0, 1e-6);
  }
}

TEST(SoftmaxCrossEntropy, StableForExtremeLogits) {
  const ComputeContext ctx;
  nn::SoftmaxCrossEntropy loss;
  Tensor logits({1, 2}, std::vector<float>{1000.0f, -1000.0f});
  std::vector<std::int32_t> labels{0};
  Tensor dlogits;
  const auto res = loss.forward_backward(logits, labels, &dlogits, ctx);
  EXPECT_TRUE(std::isfinite(res.loss));
  EXPECT_NEAR(res.loss, 0.0, 1e-6);
}

TEST(SoftmaxCrossEntropy, RejectsBadLabels) {
  const ComputeContext ctx;
  nn::SoftmaxCrossEntropy loss;
  Tensor logits({1, 3});
  EXPECT_THROW(
      loss.forward_backward(logits, std::vector<std::int32_t>{3}, nullptr, ctx),
      std::out_of_range);
  EXPECT_THROW(loss.forward_backward(logits, std::vector<std::int32_t>{-1},
                                     nullptr, ctx),
               std::out_of_range);
}

TEST(SoftmaxCrossEntropy, RejectsLabelCountMismatch) {
  const ComputeContext ctx;
  nn::SoftmaxCrossEntropy loss;
  Tensor logits({2, 3});
  EXPECT_THROW(
      loss.forward_backward(logits, std::vector<std::int32_t>{0}, nullptr, ctx),
      std::invalid_argument);
}

}  // namespace
}  // namespace minsgd

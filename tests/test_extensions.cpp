// Tests for the library extensions: cosine annealing, top-k metrics and
// optimizer-state checkpointing.
#include <gtest/gtest.h>

#include <cmath>

#include "data/synthetic.hpp"
#include "nn/activation.hpp"
#include "nn/conv.hpp"
#include "nn/linear.hpp"
#include "nn/pool.hpp"
#include "optim/schedule.hpp"
#include "nn/loss.hpp"
#include "optim/lars.hpp"
#include "optim/sgd.hpp"

#include <sstream>
#include "train/trainer.hpp"

namespace minsgd {
namespace {

data::SynthConfig data_cfg() {
  data::SynthConfig c;
  c.classes = 4;
  c.resolution = 12;
  c.train_size = 256;
  c.test_size = 128;
  c.noise = 0.4f;
  c.seed = 5;
  return c;
}

std::unique_ptr<nn::Network> det_model() {
  auto net = std::make_unique<nn::Network>("det");
  net->emplace<nn::Conv2d>(3, 8, 3, 1, 1);
  net->emplace<nn::ReLU>();
  net->emplace<nn::MaxPool2d>(2, 2);
  net->emplace<nn::Flatten>();
  net->emplace<nn::Linear>(8 * 36, 4);
  return net;
}

// ---------------- cosine schedule ----------------

TEST(Cosine, EndpointsAndMidpoint) {
  optim::CosineLr s(2.0, 100);
  EXPECT_DOUBLE_EQ(s.lr(0), 2.0);
  EXPECT_NEAR(s.lr(50), 1.0, 1e-9);
  EXPECT_DOUBLE_EQ(s.lr(100), 0.0);
  EXPECT_DOUBLE_EQ(s.lr(500), 0.0);
}

TEST(Cosine, MonotoneNonIncreasing) {
  optim::CosineLr s(1.0, 64);
  for (int i = 1; i <= 64; ++i) EXPECT_LE(s.lr(i), s.lr(i - 1));
}

TEST(Cosine, ComposesWithWarmup) {
  auto inner = std::make_unique<optim::CosineLr>(1.0, 100);
  optim::WarmupLr s(std::move(inner), 10, 0.0);
  EXPECT_LT(s.lr(0), 0.2);
  EXPECT_GT(s.lr(10), 0.9);  // cosine is still near base just after warmup
}

TEST(Cosine, RejectsBadConfig) {
  EXPECT_THROW(optim::CosineLr(0.0, 10), std::invalid_argument);
  EXPECT_THROW(optim::CosineLr(1.0, 0), std::invalid_argument);
}

// ---------------- top-k ----------------

TEST(TopK, KOneMatchesArgmax) {
  Tensor logits({2, 4}, std::vector<float>{1, 5, 2, 3, 9, 0, 1, 2});
  std::vector<std::int32_t> labels{1, 0};
  EXPECT_EQ(train::top_k_correct(logits, labels, 1), 2);
  labels = {0, 1};
  EXPECT_EQ(train::top_k_correct(logits, labels, 1), 0);
}

TEST(TopK, LargerKIsMoreForgiving) {
  Tensor logits({1, 5}, std::vector<float>{5, 4, 3, 2, 1});
  for (std::int64_t k = 1; k <= 5; ++k) {
    std::vector<std::int32_t> labels{static_cast<std::int32_t>(k - 1)};
    EXPECT_EQ(train::top_k_correct(logits, labels, k), 1) << "k=" << k;
    if (k < 5) {
      std::vector<std::int32_t> beyond{static_cast<std::int32_t>(k)};
      EXPECT_EQ(train::top_k_correct(logits, beyond, k), 0) << "k=" << k;
    }
  }
}

TEST(TopK, FullKAlwaysCorrect) {
  Rng rng(3);
  Tensor logits({8, 6});
  rng.fill_normal(logits.span(), 0.0f, 1.0f);
  std::vector<std::int32_t> labels(8, 5);
  EXPECT_EQ(train::top_k_correct(logits, labels, 6), 8);
}

TEST(TopK, RejectsBadArguments) {
  Tensor logits({1, 3});
  std::vector<std::int32_t> labels{0};
  EXPECT_THROW(train::top_k_correct(logits, labels, 0),
               std::invalid_argument);
  EXPECT_THROW(train::top_k_correct(logits, labels, 4),
               std::invalid_argument);
  std::vector<std::int32_t> bad{7};
  EXPECT_THROW(train::top_k_correct(logits, bad, 1), std::out_of_range);
}

TEST(TopK, EvaluateTopKAtLeastTopOne) {
  const ComputeContext ctx;
  data::SyntheticImageNet ds(data_cfg());
  auto net = det_model();
  Rng rng(1);
  net->init(rng);
  const double top1 = train::evaluate_top_k(*net, ds, 1, 256, ctx);
  const double top3 = train::evaluate_top_k(*net, ds, 3, 256, ctx);
  EXPECT_GE(top3, top1);
  EXPECT_NEAR(top1, train::evaluate(*net, ds, 256, ctx), 1e-9);
}

// ---------------- optimizer state checkpointing ----------------

TEST(OptimizerState, SgdRoundTripResumesExactly) {
  // Train 2 epochs in one go vs 1 epoch + state save/restore + 1 epoch:
  // the weights must match exactly (momentum is part of the trajectory).
  const ComputeContext ctx;
  data::SyntheticImageNet ds(data_cfg());
  data::ShardedLoader loader(ds, 32);
  nn::SoftmaxCrossEntropy loss;
  auto run_epoch = [&](nn::Network& net, optim::Optimizer& opt,
                       std::int64_t epoch) {
    auto params = net.params();
    Tensor logits, dlogits, dx;
    for (std::int64_t it = 0; it < loader.iterations_per_epoch(); ++it) {
      const auto batch = loader.load_train(epoch, it, ctx);
      net.zero_grad();
      net.forward(batch.x, logits, true, ctx);
      loss.forward_backward(logits, batch.labels, &dlogits, ctx);
      net.backward(batch.x, logits, dlogits, dx, ctx);
      opt.step(params, 0.02, ctx);
    }
  };

  auto direct_net = det_model();
  Rng r1(3);
  direct_net->init(r1);
  optim::Sgd direct_opt({.momentum = 0.9, .weight_decay = 0.0005});
  run_epoch(*direct_net, direct_opt, 0);
  run_epoch(*direct_net, direct_opt, 1);

  auto resumed_net = det_model();
  Rng r2(3);
  resumed_net->init(r2);
  optim::Sgd phase1({.momentum = 0.9, .weight_decay = 0.0005});
  run_epoch(*resumed_net, phase1, 0);
  std::stringstream state;
  phase1.save_state(state);
  optim::Sgd phase2({.momentum = 0.9, .weight_decay = 0.0005});
  phase2.load_state(state);
  run_epoch(*resumed_net, phase2, 1);

  EXPECT_EQ(direct_net->flatten_params(), resumed_net->flatten_params());
}

TEST(OptimizerState, FreshOptimizerSavesEmptyState) {
  optim::Sgd sgd;
  std::stringstream s;
  sgd.save_state(s);
  optim::Lars lars;
  lars.load_state(s);  // empty state loads into any optimizer
  SUCCEED();
}

TEST(OptimizerState, LarsRoundTrip) {
  const ComputeContext ctx;
  Tensor w({4}, std::vector<float>{1, 2, 3, 4});
  Tensor g({4}, std::vector<float>{0.1f, 0.2f, 0.3f, 0.4f});
  std::vector<nn::ParamRef> p{{"a", &w, &g, true}};
  optim::Lars a({.trust_coeff = 0.1, .momentum = 0.9});
  a.step(p, 0.5, ctx);
  std::stringstream s;
  a.save_state(s);

  Tensor w2 = w, g2 = g;
  std::vector<nn::ParamRef> p2{{"a", &w2, &g2, true}};
  optim::Lars b({.trust_coeff = 0.1, .momentum = 0.9});
  b.load_state(s);
  a.step(p, 0.5, ctx);
  b.step(p2, 0.5, ctx);
  for (std::int64_t i = 0; i < 4; ++i) EXPECT_FLOAT_EQ(w[i], w2[i]);
}

TEST(OptimizerState, TruncatedStateThrows) {
  const ComputeContext ctx;
  optim::Sgd sgd;
  Tensor w({2}, 1.0f), g({2}, 1.0f);
  std::vector<nn::ParamRef> p{{"a", &w, &g, true}};
  sgd.step(p, 0.1, ctx);
  std::stringstream s;
  sgd.save_state(s);
  const std::string full = s.str();
  std::stringstream truncated(full.substr(0, full.size() - 3));
  optim::Sgd other;
  EXPECT_THROW(other.load_state(truncated), std::runtime_error);
}

}  // namespace
}  // namespace minsgd

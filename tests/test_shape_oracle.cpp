// Shape oracle: Layer::output_shape() must predict exactly the shape
// forward() produces, for every layer type over a grid of input geometries.
// The memory planner sizes every arena slice from output_shape(), so a
// divergence here is an out-of-bounds write waiting to happen — this test
// pins the two against each other mechanically.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "nn/activation.hpp"
#include "nn/conv.hpp"
#include "nn/dropout.hpp"
#include "nn/linear.hpp"
#include "nn/models.hpp"
#include "nn/network.hpp"
#include "nn/norm.hpp"
#include "nn/pool.hpp"
#include "nn/residual.hpp"
#include "tensor/context.hpp"

namespace minsgd {
namespace {

Tensor filled(const Shape& shape, std::uint64_t seed) {
  Tensor t(shape);
  Rng rng(seed);
  for (auto& v : t.span()) v = static_cast<float>(rng.normal());
  return t;
}

/// The oracle check: output_shape(input) == shape forward actually builds,
/// in both training and eval mode.
void expect_oracle(nn::Layer& layer, const Shape& input) {
  const ComputeContext ctx(2);
  const Shape predicted = layer.output_shape(input);
  const Tensor x = filled(input, 42);
  for (const bool training : {true, false}) {
    Tensor y;
    layer.forward(x, y, training, ctx);
    EXPECT_EQ(y.shape(), predicted)
        << layer.name() << " on " << input.str() << " training=" << training
        << ": predicted " << predicted.str() << " got " << y.shape().str();
  }
}

TEST(ShapeOracle, Conv2d) {
  // kernel x stride x pad x groups over odd and even spatial extents.
  const std::int64_t batches[] = {1, 3};
  const std::int64_t spatial[] = {7, 8, 11};
  struct Cfg { std::int64_t k, s, p, g; };
  const Cfg cfgs[] = {{1, 1, 0, 1}, {1, 2, 0, 1}, {3, 1, 1, 1},
                      {3, 2, 1, 1}, {3, 1, 0, 2}, {5, 2, 2, 1},
                      {7, 2, 3, 1}, {2, 2, 0, 1}};
  for (const auto& c : cfgs) {
    for (const auto n : batches) {
      for (const auto hw : spatial) {
        if (hw + 2 * c.p < c.k) continue;
        nn::Conv2d conv(4, 6, c.k, c.s, c.p, /*bias=*/true, c.g);
        Rng rng(1);
        conv.init(rng);
        expect_oracle(conv, Shape({n, 4, hw, hw}));
        // Non-square input: H != W must flow through independently.
        if (hw + 1 + 2 * c.p >= c.k) {
          nn::Conv2d conv2(4, 6, c.k, c.s, c.p, /*bias=*/false, c.g);
          conv2.init(rng);
          expect_oracle(conv2, Shape({n, 4, hw + 1, hw}));
        }
      }
    }
  }
}

TEST(ShapeOracle, Linear) {
  for (const std::int64_t in : {1, 17, 64}) {
    for (const std::int64_t out : {1, 5, 32}) {
      for (const std::int64_t batch : {1, 9}) {
        nn::Linear lin(in, out);
        Rng rng(1);
        lin.init(rng);
        expect_oracle(lin, Shape({batch, in}));
      }
    }
  }
}

TEST(ShapeOracle, Pooling) {
  struct Cfg { std::int64_t k, s, p; };
  const Cfg cfgs[] = {{2, 2, 0}, {3, 2, 0}, {3, 2, 1}, {3, 1, 1}, {2, 1, 0}};
  for (const auto& c : cfgs) {
    for (const std::int64_t hw : {6, 9, 12}) {
      nn::MaxPool2d mp(c.k, c.s, c.p);
      expect_oracle(mp, Shape({2, 3, hw, hw}));
      nn::AvgPool2d ap(c.k, c.s, c.p);
      expect_oracle(ap, Shape({2, 3, hw, hw}));
      nn::MaxPool2d mp2(c.k, c.s, c.p);
      expect_oracle(mp2, Shape({1, 5, hw + 1, hw}));
    }
  }
  for (const std::int64_t hw : {1, 4, 7}) {
    nn::GlobalAvgPool gap;
    expect_oracle(gap, Shape({3, 6, hw, hw}));
  }
}

TEST(ShapeOracle, NormsActivationsDropout) {
  for (const std::int64_t hw : {3, 8}) {
    for (const std::int64_t batch : {1, 4}) {
      nn::BatchNorm2d bn(5);
      Rng rng(1);
      bn.init(rng);
      expect_oracle(bn, Shape({batch, 5, hw, hw}));
      nn::LRN lrn(5);
      expect_oracle(lrn, Shape({batch, 7, hw, hw}));
      nn::ReLU relu;
      expect_oracle(relu, Shape({batch, 5, hw, hw}));
      nn::Flatten flatten;
      expect_oracle(flatten, Shape({batch, 5, hw, hw}));
    }
  }
  nn::ReLU relu2d;
  expect_oracle(relu2d, Shape({3, 11}));
  // Dropout in eval mode is the identity; training keeps the shape too.
  nn::Dropout drop(0.3f);
  expect_oracle(drop, Shape({4, 20}));
  nn::Dropout drop4(0.5f);
  expect_oracle(drop4, Shape({2, 3, 5, 5}));
}

TEST(ShapeOracle, ResidualBlocks) {
  // A block runs only inside a planned Network: each is wrapped in a
  // one-layer one.
  Rng rng(3);
  // Identity shortcut.
  {
    auto branch = std::make_unique<nn::Network>("b");
    branch->emplace<nn::Conv2d>(6, 6, 3, 1, 1);
    branch->emplace<nn::BatchNorm2d>(6);
    branch->emplace<nn::ReLU>();
    branch->emplace<nn::Conv2d>(6, 6, 3, 1, 1);
    nn::Network block("blk");
    block.add(std::make_unique<nn::ResidualBlock>(std::move(branch)));
    block.init(rng);
    expect_oracle(block, Shape({2, 6, 9, 9}));
  }
  // Strided projection shortcut: spatial halving + channel change.
  {
    auto branch = std::make_unique<nn::Network>("b");
    branch->emplace<nn::Conv2d>(4, 8, 3, 2, 1);
    branch->emplace<nn::BatchNorm2d>(8);
    branch->emplace<nn::ReLU>();
    branch->emplace<nn::Conv2d>(8, 8, 3, 1, 1);
    auto shortcut = std::make_unique<nn::Network>("s");
    shortcut->emplace<nn::Conv2d>(4, 8, 1, 2, 0);
    shortcut->emplace<nn::BatchNorm2d>(8);
    nn::Network block("blk");
    block.add(std::make_unique<nn::ResidualBlock>(std::move(branch),
                                                  std::move(shortcut)));
    block.init(rng);
    expect_oracle(block, Shape({2, 4, 8, 8}));
    expect_oracle(block, Shape({1, 4, 11, 11}));
  }
}

TEST(ShapeOracle, WholeModels) {
  Rng rng(7);
  {
    auto net = nn::tiny_resnet(1, 10, 16);
    net->init(rng);
    expect_oracle(*net, Shape({2, 3, 16, 16}));
  }
  {
    auto net = nn::tiny_alexnet(8, 16);
    net->init(rng);
    expect_oracle(*net, Shape({2, 3, 16, 16}));
  }
}

}  // namespace
}  // namespace minsgd

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <sstream>
#include <vector>

#include "grad_check.hpp"
#include "nn/activation.hpp"
#include "nn/conv.hpp"
#include "nn/linear.hpp"
#include "nn/network.hpp"
#include "nn/norm.hpp"
#include "nn/pool.hpp"
#include "nn/residual.hpp"
#include "nn/serialize.hpp"

namespace minsgd {
namespace {

std::unique_ptr<nn::Network> small_net() {
  auto net = std::make_unique<nn::Network>("small");
  net->emplace<nn::Conv2d>(2, 4, 3, 1, 1);
  net->emplace<nn::ReLU>();
  net->emplace<nn::MaxPool2d>(2, 2);
  net->emplace<nn::Flatten>();
  net->emplace<nn::Linear>(4 * 3 * 3, 5);
  return net;
}

TEST(Network, OutputShapeComposes) {
  auto net = small_net();
  EXPECT_EQ(net->output_shape({7, 2, 6, 6}), Shape({7, 5}));
}

TEST(Network, ForwardRuns) {
  const ComputeContext ctx;
  auto net = small_net();
  Rng rng(1);
  net->init(rng);
  Tensor x({2, 2, 6, 6});
  rng.fill_normal(x.span(), 0.0f, 1.0f);
  Tensor y;
  net->forward(x, y, false, ctx);
  EXPECT_EQ(y.shape(), Shape({2, 5}));
}

TEST(Network, GradCheckWholeStack) {
  auto net = small_net();
  testing::check_gradients(*net, {2, 2, 6, 6});
}

TEST(Network, EmptyForwardThrows) {
  const ComputeContext ctx;
  nn::Network net;
  Tensor x({1, 2}), y;
  EXPECT_THROW(net.forward(x, y, false, ctx), std::logic_error);
}

TEST(Network, BackwardBeforeForwardThrows) {
  const ComputeContext ctx;
  auto net = small_net();
  Tensor x({1, 2, 6, 6}), y({1, 5}), dy({1, 5}), dx;
  EXPECT_THROW(net->backward(x, y, dy, dx, ctx), std::logic_error);
}

TEST(Network, AddNullThrows) {
  nn::Network net;
  EXPECT_THROW(net.add(nullptr), std::invalid_argument);
}

TEST(Network, ParamNamesArePrefixed) {
  auto net = small_net();
  const auto params = net->params();
  ASSERT_FALSE(params.empty());
  EXPECT_NE(params[0].name.find("small.0.conv"), std::string::npos);
  EXPECT_NE(params[0].name.find("weight"), std::string::npos);
}

TEST(Network, NumParamsMatchesSum) {
  auto net = small_net();
  // conv: 4*2*9+4 = 76; linear: 36*5+5 = 185.
  EXPECT_EQ(net->num_params(), 76 + 185);
}

TEST(Network, ZeroGradClearsAll) {
  auto net = small_net();
  Rng rng(2);
  net->init(rng);
  for (auto& p : net->params()) p.grad->fill(1.0f);
  net->zero_grad();
  for (auto& p : net->params()) {
    for (std::int64_t i = 0; i < p.grad->numel(); ++i) {
      ASSERT_EQ((*p.grad)[i], 0.0f);
    }
  }
}

TEST(Network, FlattenUnflattenParamsRoundTrip) {
  auto net = small_net();
  Rng rng(3);
  net->init(rng);
  auto flat = net->flatten_params();
  EXPECT_EQ(static_cast<std::int64_t>(flat.size()), net->num_params());
  // Perturb, write back, read again.
  for (auto& v : flat) v += 1.0f;
  net->unflatten_params(flat);
  auto flat2 = net->flatten_params();
  EXPECT_EQ(flat, flat2);
}

TEST(Network, UnflattenRejectsWrongSize) {
  auto net = small_net();
  Rng rng(3);
  net->init(rng);
  std::vector<float> too_small(10);
  EXPECT_THROW(net->unflatten_params(too_small), std::invalid_argument);
  std::vector<float> too_big(static_cast<std::size_t>(net->num_params()) + 1);
  EXPECT_THROW(net->unflatten_params(too_big), std::invalid_argument);
}

// ---------------- flat parameter / gradient storage ----------------

TEST(NetworkFlatStorage, SpansHoldEveryParameterInParamsOrder) {
  auto net = small_net();
  Rng rng(4);
  net->init(rng);
  std::vector<float> before;
  for (const auto& p : net->params()) {
    before.insert(before.end(), p.value->span().begin(),
                  p.value->span().end());
  }
  const std::span<float> w = net->param_span();
  const std::span<float> g = net->grad_span();
  ASSERT_EQ(static_cast<std::int64_t>(w.size()), net->num_params());
  ASSERT_EQ(static_cast<std::int64_t>(g.size()), net->num_params());
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(w.data()) % 64, 0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(g.data()) % 64, 0u);
  // Materializing copies the values in; no padding between parameters.
  EXPECT_EQ(std::vector<float>(w.begin(), w.end()), before);
  std::size_t off = 0;
  for (const auto& p : net->params()) {
    EXPECT_TRUE(p.value->bound());
    EXPECT_TRUE(p.grad->bound());
    EXPECT_EQ(p.value->data(), w.data() + off) << p.name;
    EXPECT_EQ(p.grad->data(), g.data() + off) << p.name;
    off += static_cast<std::size_t>(p.value->numel());
  }
  EXPECT_EQ(off, w.size());
  // A second call returns the same storage.
  EXPECT_EQ(net->param_span().data(), w.data());
  EXPECT_EQ(net->grad_span().data(), g.data());
}

TEST(NetworkFlatStorage, WritesThroughParamRefsShowInTheSpans) {
  auto net = small_net();
  Rng rng(5);
  net->init(rng);
  const std::span<float> w = net->param_span();
  const std::span<float> g = net->grad_span();
  const auto params = net->params();
  const auto& last = params.back();  // the linear bias: ends both spans
  last.grad->fill(2.5f);
  (*last.value)[0] = -7.0f;
  const std::size_t last_off = w.size() - last.value->numel();
  EXPECT_EQ(g[last_off], 2.5f);
  EXPECT_EQ(g.back(), 2.5f);
  EXPECT_EQ(w[last_off], -7.0f);
  EXPECT_NE(g[last_off - 1], 2.5f);  // the neighbour is untouched
  // And the other way round.
  w[0] = 11.0f;
  g[0] = 3.0f;
  EXPECT_EQ((*params[0].value)[0], 11.0f);
  EXPECT_EQ((*params[0].grad)[0], 3.0f);
}

TEST(NetworkFlatStorage, ZeroGradClearsTheGradientSpan) {
  auto net = small_net();
  Rng rng(6);
  net->init(rng);
  const std::span<float> g = net->grad_span();
  std::fill(g.begin(), g.end(), 1.0f);
  const auto weights = net->flatten_params();
  net->zero_grad();
  for (float v : g) ASSERT_EQ(v, 0.0f);
  EXPECT_EQ(net->flatten_params(), weights);  // values are left alone
}

TEST(NetworkFlatStorage, CheckpointLoadsIntoBoundParameters) {
  auto a = small_net();
  auto b = small_net();
  Rng ra(7), rb(8);
  a->init(ra);
  b->init(rb);
  const float* w = b->param_span().data();
  std::stringstream buf;
  nn::save_checkpoint(*a, buf);
  nn::load_checkpoint(*b, buf);
  EXPECT_EQ(b->param_span().data(), w);  // still the same storage
  for (const auto& p : b->params()) EXPECT_TRUE(p.value->bound());
  EXPECT_EQ(b->flatten_params(), a->flatten_params());
}

TEST(NetworkFlatStorage, AddAfterMaterializationThrows) {
  auto net = small_net();
  net->grad_span();
  EXPECT_THROW(net->emplace<nn::ReLU>(), std::logic_error);
  EXPECT_EQ(net->size(), 5u);
}

TEST(NetworkFlatStorage, NestedNetworkCannotRebindItsParameters) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  auto branch = std::make_unique<nn::Network>("b");
  branch->emplace<nn::Conv2d>(2, 2, 3, 1, 1, false);
  nn::Network* inner = branch.get();
  nn::Network outer("outer");
  outer.add(std::make_unique<nn::ResidualBlock>(std::move(branch)));
  outer.param_span();
  EXPECT_DEATH(inner->grad_span(), "already bound");
}

TEST(Network, FlopsSumAcrossLayers) {
  auto net = small_net();
  const Shape in{1, 2, 6, 6};
  // conv on 6x6 out: 2*4*2*9*36 ; linear: 2*36*5
  EXPECT_EQ(net->flops(in), 2 * 4 * 2 * 9 * 36 + 2 * 36 * 5);
}

TEST(Network, DeterministicInitGivenSeed) {
  auto a = small_net();
  auto b = small_net();
  Rng ra(9), rb(9);
  a->init(ra);
  b->init(rb);
  EXPECT_EQ(a->flatten_params(), b->flatten_params());
}

// ---------------- ResidualBlock ----------------
// A block runs only inside a planned Network, so the cases that run one
// wrap it in a one-layer Network.

std::unique_ptr<nn::ResidualBlock> identity_block(std::int64_t c) {
  auto branch = std::make_unique<nn::Network>("b");
  branch->emplace<nn::Conv2d>(c, c, 3, 1, 1, false);
  branch->emplace<nn::BatchNorm2d>(c);
  return std::make_unique<nn::ResidualBlock>(std::move(branch));
}

std::unique_ptr<nn::Network> one_layer(nn::LayerPtr layer) {
  auto net = std::make_unique<nn::Network>("blk");
  net->add(std::move(layer));
  return net;
}

TEST(ResidualBlock, IdentityShortcutShape) {
  auto blk = identity_block(4);
  EXPECT_EQ(blk->output_shape({2, 4, 5, 5}), Shape({2, 4, 5, 5}));
}

TEST(ResidualBlock, ZeroBranchPassesReluOfInput) {
  const ComputeContext ctx;
  auto branch = std::make_unique<nn::Network>("b");
  branch->emplace<nn::Conv2d>(2, 2, 1, 1, 0, false);
  auto blk = one_layer(std::make_unique<nn::ResidualBlock>(std::move(branch)));
  // Zero conv weights: y = relu(0 + x).
  Rng rng(4);
  blk->init(rng);
  for (auto& p : blk->params()) p.value->zero();
  Tensor x({1, 2, 2, 2}, std::vector<float>{-1, 2, -3, 4, 5, -6, 7, -8});
  Tensor y;
  blk->forward(x, y, false, ctx);
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    EXPECT_EQ(y[i], std::max(0.0f, x[i]));
  }
}

TEST(ResidualBlock, StandaloneForwardDies) {
  const ComputeContext ctx;
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  auto blk = identity_block(2);
  Rng rng(5);
  blk->init(rng);
  Tensor x({1, 2, 3, 3}), y;
  EXPECT_DEATH(blk->forward(x, y, false, ctx), "planned Network");
}

TEST(ResidualBlock, GradCheckIdentity) {
  auto blk = one_layer(identity_block(3));
  testing::check_gradients(*blk, {2, 3, 4, 4}, /*seed=*/31,
                           {.step = 1e-3, .rel_tol = 3e-2, .abs_tol = 2e-4});
}

TEST(ResidualBlock, GradCheckProjection) {
  auto branch = std::make_unique<nn::Network>("b");
  branch->emplace<nn::Conv2d>(2, 4, 3, 2, 1, false);
  branch->emplace<nn::BatchNorm2d>(4);
  auto shortcut = std::make_unique<nn::Network>("s");
  shortcut->emplace<nn::Conv2d>(2, 4, 1, 2, 0, false);
  shortcut->emplace<nn::BatchNorm2d>(4);
  auto blk = one_layer(std::make_unique<nn::ResidualBlock>(
      std::move(branch), std::move(shortcut)));
  testing::check_gradients(*blk, {2, 2, 4, 4}, /*seed=*/33,
                           {.step = 1e-3, .rel_tol = 3e-2, .abs_tol = 2e-4});
}

TEST(ResidualBlock, MismatchedShapesThrow) {
  auto branch = std::make_unique<nn::Network>("b");
  branch->emplace<nn::Conv2d>(2, 4, 3, 1, 1, false);  // changes channels
  nn::ResidualBlock blk(std::move(branch));           // identity shortcut
  EXPECT_THROW(blk.output_shape({1, 2, 4, 4}), std::invalid_argument);
}

TEST(ResidualBlock, NullBranchThrows) {
  EXPECT_THROW(nn::ResidualBlock(nullptr), std::invalid_argument);
}

TEST(ResidualBlock, ParamsIncludeShortcut) {
  auto branch = std::make_unique<nn::Network>("b");
  branch->emplace<nn::Conv2d>(2, 4, 3, 1, 1, false);
  auto shortcut = std::make_unique<nn::Network>("s");
  shortcut->emplace<nn::Conv2d>(2, 4, 1, 1, 0, false);
  nn::ResidualBlock blk(std::move(branch), std::move(shortcut));
  EXPECT_EQ(blk.params().size(), 2u);
}

}  // namespace
}  // namespace minsgd

#include <gtest/gtest.h>

#include "nn/analysis.hpp"
#include "nn/models.hpp"
#include "tensor/ops.hpp"

namespace minsgd {
namespace {

// Table 6: AlexNet ~61M params / ~1.5 GFLOP; ResNet-50 ~25M / ~7.7 GFLOP;
// scaling ratios 24.6 and 308 respectively. Our from-scratch definitions
// must land within a few percent of the paper's rounded numbers.

TEST(Models, AlexNetParamsMatchTable6) {
  auto net = nn::alexnet();
  const auto prof = nn::profile_model(*net, nn::alexnet_input());
  EXPECT_NEAR(static_cast<double>(prof.params), 61.0e6, 1.5e6);
}

TEST(Models, AlexNetFlopsMatchTable6) {
  auto net = nn::alexnet();
  const auto prof = nn::profile_model(*net, nn::alexnet_input());
  EXPECT_NEAR(static_cast<double>(prof.flops_per_image), 1.5e9, 0.12e9);
}

TEST(Models, AlexNetScalingRatioNearPaper) {
  auto net = nn::alexnet();
  const auto prof = nn::profile_model(*net, nn::alexnet_input());
  EXPECT_NEAR(prof.scaling_ratio(), 24.6, 2.0);
}

TEST(Models, ResNet50ParamsMatchTable6) {
  auto net = nn::resnet(50);
  const auto prof = nn::profile_model(*net, nn::resnet_input());
  EXPECT_NEAR(static_cast<double>(prof.params), 25.5e6, 1.0e6);
}

TEST(Models, ResNet50FlopsMatchTable6) {
  auto net = nn::resnet(50);
  const auto prof = nn::profile_model(*net, nn::resnet_input());
  EXPECT_NEAR(static_cast<double>(prof.flops_per_image), 7.7e9, 0.4e9);
}

TEST(Models, ResNet50ScalingRatioNearPaper) {
  auto net = nn::resnet(50);
  const auto prof = nn::profile_model(*net, nn::resnet_input());
  EXPECT_NEAR(prof.scaling_ratio(), 308.0, 15.0);
}

TEST(Models, ScalingRatioGapIsAboutTwelveX) {
  auto a = nn::alexnet();
  auto r = nn::resnet(50);
  const auto pa = nn::profile_model(*a, nn::alexnet_input());
  const auto pr = nn::profile_model(*r, nn::resnet_input());
  EXPECT_NEAR(pr.scaling_ratio() / pa.scaling_ratio(), 12.5, 1.5);
}

TEST(Models, AlexNetOutputShape) {
  auto net = nn::alexnet(1000);
  EXPECT_EQ(net->output_shape({4, 3, 227, 227}), Shape({4, 1000}));
}

TEST(Models, AlexNetBnReplacesLrn) {
  auto lrn_net = nn::alexnet(10, nn::AlexNetNorm::kLRN);
  auto bn_net = nn::alexnet(10, nn::AlexNetNorm::kBN);
  // The BN variant has extra learnable scale/shift parameters.
  EXPECT_GT(bn_net->num_params(), lrn_net->num_params());
  EXPECT_EQ(bn_net->output_shape({1, 3, 227, 227}), Shape({1, 10}));
}

TEST(Models, ResNet18And34Shapes) {
  auto r18 = nn::resnet(18, 10);
  auto r34 = nn::resnet(34, 10);
  EXPECT_EQ(r18->output_shape({2, 3, 224, 224}), Shape({2, 10}));
  EXPECT_EQ(r34->output_shape({2, 3, 224, 224}), Shape({2, 10}));
  // Known parameter counts (torchvision, fc resized to 10 classes):
  // ResNet-18 ~11.2M, ResNet-34 ~21.3M.
  EXPECT_NEAR(static_cast<double>(r18->num_params()), 11.2e6, 0.5e6);
  EXPECT_NEAR(static_cast<double>(r34->num_params()), 21.3e6, 0.8e6);
}

TEST(Models, ResNetRejectsUnknownDepth) {
  EXPECT_THROW(nn::resnet(99), std::invalid_argument);
}

TEST(Models, TinyAlexNetForwardBackwardSmoke) {
  const ComputeContext ctx;
  auto net = nn::tiny_alexnet(8, 16);
  Rng rng(1);
  net->init(rng);
  Tensor x({4, 3, 16, 16});
  rng.fill_normal(x.span(), 0.0f, 1.0f);
  Tensor y;
  net->forward(x, y, true, ctx);
  EXPECT_EQ(y.shape(), Shape({4, 8}));
  Tensor dy(y.shape(), 0.1f), dx;
  net->zero_grad();
  net->backward(x, y, dy, dx, ctx);
  EXPECT_EQ(dx.shape(), x.shape());
}

TEST(Models, TinyResNetForwardSmoke) {
  const ComputeContext ctx;
  auto net = nn::tiny_resnet(1, 8, 16);  // ResNet-8 style
  Rng rng(2);
  net->init(rng);
  Tensor x({2, 3, 16, 16});
  rng.fill_normal(x.span(), 0.0f, 1.0f);
  Tensor y;
  net->forward(x, y, false, ctx);
  EXPECT_EQ(y.shape(), Shape({2, 8}));
}

TEST(Models, TinyModelsRejectBadConfig) {
  EXPECT_THROW(nn::tiny_alexnet(8, 8), std::invalid_argument);
  EXPECT_THROW(nn::tiny_resnet(0, 8, 16), std::invalid_argument);
  EXPECT_THROW(nn::tiny_resnet(2, 8, 4), std::invalid_argument);
}

TEST(Models, FullAlexNetForwardSmoke) {
  // One full-resolution image through the real architecture.
  const ComputeContext ctx;
  auto net = nn::alexnet(1000);
  Rng rng(3);
  net->init(rng);
  Tensor x({1, 3, 227, 227});
  rng.fill_normal(x.span(), 0.0f, 1.0f);
  Tensor y;
  net->forward(x, y, false, ctx);
  EXPECT_EQ(y.shape(), Shape({1, 1000}));
}

TEST(Models, ResNet18BackwardSmoke) {
  // Full residual architecture end to end (reduced input resolution so the
  // test stays fast; the graph structure is identical to 224).
  const ComputeContext ctx;
  auto net = nn::resnet(18, 10);
  Rng rng(4);
  net->init(rng);
  Tensor x({1, 3, 64, 64});
  rng.fill_normal(x.span(), 0.0f, 1.0f);
  Tensor y;
  net->forward(x, y, true, ctx);
  ASSERT_EQ(y.shape(), Shape({1, 10}));
  Tensor dy(y.shape(), 0.1f), dx;
  net->zero_grad();
  net->backward(x, y, dy, dx, ctx);
  EXPECT_EQ(dx.shape(), x.shape());
  EXPECT_TRUE(all_finite(dx.span()));
  for (auto& p : net->params()) {
    ASSERT_TRUE(all_finite(p.grad->span())) << p.name;
  }
}

TEST(Models, NetworkHandlesVaryingBatchSizes) {
  // Layers cache scratch buffers; a smaller batch after a larger one must
  // resize them correctly (the evaluation path does exactly this).
  const ComputeContext ctx;
  auto net = nn::tiny_alexnet(4, 16, nn::AlexNetNorm::kBN, 4);
  Rng rng(6);
  net->init(rng);
  Tensor big({8, 3, 16, 16}), small({2, 3, 16, 16}), y;
  rng.fill_normal(big.span(), 0.0f, 1.0f);
  rng.fill_normal(small.span(), 0.0f, 1.0f);
  net->forward(big, y, true, ctx);
  EXPECT_EQ(y.shape()[0], 8);
  net->forward(small, y, true, ctx);
  EXPECT_EQ(y.shape()[0], 2);
  net->forward(big, y, false, ctx);
  EXPECT_EQ(y.shape()[0], 8);
}

TEST(Models, LayerTableListsEveryLayer) {
  auto net = nn::tiny_resnet(1, 8, 16);
  const auto table = nn::layer_table(*net, {1, 3, 16, 16});
  EXPECT_NE(table.find("resblock"), std::string::npos);
  EXPECT_NE(table.find("gap"), std::string::npos);
  EXPECT_NE(table.find("linear"), std::string::npos);
}

}  // namespace
}  // namespace minsgd

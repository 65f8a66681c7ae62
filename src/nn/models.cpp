#include "nn/models.hpp"

#include <stdexcept>
#include <string>

#include "nn/activation.hpp"
#include "nn/conv.hpp"
#include "nn/dropout.hpp"
#include "nn/linear.hpp"
#include "nn/norm.hpp"
#include "nn/pool.hpp"
#include "nn/residual.hpp"

namespace minsgd::nn {
namespace {

void add_alexnet_norm(Network& net, AlexNetNorm norm, std::int64_t channels) {
  if (norm == AlexNetNorm::kLRN) {
    net.emplace<LRN>(5, 1e-4f, 0.75f, 1.0f);
  } else {
    net.emplace<BatchNorm2d>(channels);
  }
  (void)channels;
}

/// BN with its ReLU fused into the same pass (BatchNorm2d's fuse_relu).
void add_bn_relu(Network& net, std::int64_t channels) {
  net.emplace<BatchNorm2d>(channels, 1e-5f, 0.9f, /*fuse_relu=*/true);
}

}  // namespace

LayerPtr bottleneck(std::int64_t in_c, std::int64_t mid_c, std::int64_t stride) {
  const std::int64_t out_c = mid_c * 4;
  auto branch = std::make_unique<Network>("bottleneck");
  branch->emplace<Conv2d>(in_c, mid_c, 1, stride, 0, /*bias=*/false);
  add_bn_relu(*branch, mid_c);
  branch->emplace<Conv2d>(mid_c, mid_c, 3, 1, 1, /*bias=*/false);
  add_bn_relu(*branch, mid_c);
  branch->emplace<Conv2d>(mid_c, out_c, 1, 1, 0, /*bias=*/false);
  branch->emplace<BatchNorm2d>(out_c);

  std::unique_ptr<Network> shortcut;
  if (stride != 1 || in_c != out_c) {
    shortcut = std::make_unique<Network>("proj");
    shortcut->emplace<Conv2d>(in_c, out_c, 1, stride, 0, /*bias=*/false);
    shortcut->emplace<BatchNorm2d>(out_c);
  }
  return std::make_unique<ResidualBlock>(std::move(branch),
                                         std::move(shortcut));
}

LayerPtr basic_block(std::int64_t in_c, std::int64_t out_c,
                     std::int64_t stride) {
  auto branch = std::make_unique<Network>("basic");
  branch->emplace<Conv2d>(in_c, out_c, 3, stride, 1, /*bias=*/false);
  add_bn_relu(*branch, out_c);
  branch->emplace<Conv2d>(out_c, out_c, 3, 1, 1, /*bias=*/false);
  branch->emplace<BatchNorm2d>(out_c);

  std::unique_ptr<Network> shortcut;
  if (stride != 1 || in_c != out_c) {
    shortcut = std::make_unique<Network>("proj");
    shortcut->emplace<Conv2d>(in_c, out_c, 1, stride, 0, /*bias=*/false);
    shortcut->emplace<BatchNorm2d>(out_c);
  }
  return std::make_unique<ResidualBlock>(std::move(branch),
                                         std::move(shortcut));
}

Shape alexnet_input() { return {1, 3, 227, 227}; }
Shape resnet_input() { return {1, 3, 224, 224}; }

std::unique_ptr<Network> alexnet(std::int64_t classes, AlexNetNorm norm) {
  auto net = std::make_unique<Network>(
      norm == AlexNetNorm::kLRN ? "alexnet" : "alexnet-bn");
  // conv1: 96 x 11x11 / s4 (227 -> 55)
  net->emplace<Conv2d>(3, 96, 11, 4, 0);
  add_alexnet_norm(*net, norm, 96);
  net->emplace<ReLU>();
  net->emplace<MaxPool2d>(3, 2);  // 55 -> 27
  // conv2: 256 x 5x5 pad 2, 2 groups (27 -> 27)
  net->emplace<Conv2d>(96, 256, 5, 1, 2, true, 2);
  add_alexnet_norm(*net, norm, 256);
  net->emplace<ReLU>();
  net->emplace<MaxPool2d>(3, 2);  // 27 -> 13
  // conv3/4/5: 384, 384, 256 x 3x3 pad 1; groups on 4 and 5
  net->emplace<Conv2d>(256, 384, 3, 1, 1);
  if (norm == AlexNetNorm::kBN) net->emplace<BatchNorm2d>(384);
  net->emplace<ReLU>();
  net->emplace<Conv2d>(384, 384, 3, 1, 1, true, 2);
  if (norm == AlexNetNorm::kBN) net->emplace<BatchNorm2d>(384);
  net->emplace<ReLU>();
  net->emplace<Conv2d>(384, 256, 3, 1, 1, true, 2);
  if (norm == AlexNetNorm::kBN) net->emplace<BatchNorm2d>(256);
  net->emplace<ReLU>();
  net->emplace<MaxPool2d>(3, 2);  // 13 -> 6
  // FC head: 9216 -> 4096 -> 4096 -> classes
  net->emplace<Flatten>();
  net->emplace<Linear>(256 * 6 * 6, 4096);
  net->emplace<ReLU>();
  net->emplace<Dropout>(0.5f);
  net->emplace<Linear>(4096, 4096);
  net->emplace<ReLU>();
  net->emplace<Dropout>(0.5f);
  net->emplace<Linear>(4096, classes);
  return net;
}

std::unique_ptr<Network> resnet(std::int64_t depth, std::int64_t classes) {
  std::int64_t blocks[4];
  bool use_bottleneck;
  switch (depth) {
    case 18:
      blocks[0] = 2; blocks[1] = 2; blocks[2] = 2; blocks[3] = 2;
      use_bottleneck = false;
      break;
    case 34:
      blocks[0] = 3; blocks[1] = 4; blocks[2] = 6; blocks[3] = 3;
      use_bottleneck = false;
      break;
    case 50:
      blocks[0] = 3; blocks[1] = 4; blocks[2] = 6; blocks[3] = 3;
      use_bottleneck = true;
      break;
    default:
      throw std::invalid_argument("resnet: depth must be 18, 34 or 50");
  }
  auto net = std::make_unique<Network>("resnet" + std::to_string(depth));
  net->emplace<Conv2d>(3, 64, 7, 2, 3, /*bias=*/false);  // 224 -> 112
  net->emplace<BatchNorm2d>(64);
  net->emplace<ReLU>();
  net->emplace<MaxPool2d>(3, 2, 1);  // 112 -> 56

  std::int64_t in_c = 64;
  const std::int64_t stage_width[4] = {64, 128, 256, 512};
  for (int stage = 0; stage < 4; ++stage) {
    const std::int64_t width = stage_width[stage];
    for (std::int64_t b = 0; b < blocks[stage]; ++b) {
      const std::int64_t stride = (stage > 0 && b == 0) ? 2 : 1;
      if (use_bottleneck) {
        net->add(bottleneck(in_c, width, stride));
        in_c = width * 4;
      } else {
        net->add(basic_block(in_c, width, stride));
        in_c = width;
      }
    }
  }
  net->emplace<GlobalAvgPool>();
  net->emplace<Linear>(in_c, classes);
  return net;
}

std::unique_ptr<Network> tiny_alexnet(std::int64_t classes,
                                      std::int64_t resolution,
                                      AlexNetNorm norm,
                                      std::int64_t base_width) {
  if (resolution < 16) {
    throw std::invalid_argument("tiny_alexnet: resolution must be >= 16");
  }
  if (base_width < 4) {
    throw std::invalid_argument("tiny_alexnet: base_width must be >= 4");
  }
  const std::int64_t w1 = base_width, w2 = 2 * base_width, fc = 8 * base_width;
  auto net = std::make_unique<Network>(
      norm == AlexNetNorm::kLRN ? "tiny-alexnet" : "tiny-alexnet-bn");
  net->emplace<Conv2d>(3, w1, 3, 1, 1);
  add_alexnet_norm(*net, norm, w1);
  net->emplace<ReLU>();
  net->emplace<MaxPool2d>(2, 2);  // r -> r/2
  net->emplace<Conv2d>(w1, w2, 3, 1, 1);
  add_alexnet_norm(*net, norm, w2);
  net->emplace<ReLU>();
  net->emplace<MaxPool2d>(2, 2);  // r/2 -> r/4
  net->emplace<Conv2d>(w2, w2, 3, 1, 1);
  if (norm == AlexNetNorm::kBN) net->emplace<BatchNorm2d>(w2);
  net->emplace<ReLU>();
  net->emplace<MaxPool2d>(2, 2);  // r/4 -> r/8
  const std::int64_t feat = w2 * (resolution / 8) * (resolution / 8);
  net->emplace<Flatten>();
  net->emplace<Linear>(feat, fc);
  net->emplace<ReLU>();
  net->emplace<Dropout>(0.5f);
  net->emplace<Linear>(fc, classes);
  return net;
}

std::unique_ptr<Network> tiny_resnet(std::int64_t blocks_per_stage,
                                     std::int64_t classes,
                                     std::int64_t resolution) {
  if (blocks_per_stage < 1) {
    throw std::invalid_argument("tiny_resnet: blocks_per_stage must be >= 1");
  }
  if (resolution < 8) {
    throw std::invalid_argument("tiny_resnet: resolution must be >= 8");
  }
  auto net = std::make_unique<Network>(
      "tiny-resnet" + std::to_string(6 * blocks_per_stage + 2));
  net->emplace<Conv2d>(3, 16, 3, 1, 1, /*bias=*/false);
  net->emplace<BatchNorm2d>(16);
  net->emplace<ReLU>();
  std::int64_t in_c = 16;
  const std::int64_t widths[3] = {16, 32, 64};
  for (int stage = 0; stage < 3; ++stage) {
    for (std::int64_t b = 0; b < blocks_per_stage; ++b) {
      const std::int64_t stride = (stage > 0 && b == 0) ? 2 : 1;
      net->add(basic_block(in_c, widths[stage], stride));
      in_c = widths[stage];
    }
  }
  net->emplace<GlobalAvgPool>();
  net->emplace<Linear>(in_c, classes);
  return net;
}

}  // namespace minsgd::nn

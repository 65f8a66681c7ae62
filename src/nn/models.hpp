// Model zoo: the two architectures the paper studies, plus scaled proxies.
//
// AlexNet / AlexNet-BN and ResNet-50 are built at full fidelity so parameter
// and FLOP counts match the paper's Table 6 (61M / 1.5 GFLOP and 25M /
// 7.7 GFLOP). The Tiny* proxies keep each architecture's character (conv
// trunk + heavy FC head vs. deep residual trunk + GAP) at a resolution a
// single core can train, and are what the accuracy experiments run.
#pragma once

#include <cstdint>
#include <memory>

#include "nn/network.hpp"

namespace minsgd::nn {

enum class AlexNetNorm {
  kLRN,  // stock AlexNet (Krizhevsky 2012)
  kBN,   // "AlexNet-BN" refined model — required for batch 32K in the paper
};

/// Canonical input shapes (batch 1).
Shape alexnet_input();   // 3 x 227 x 227
Shape resnet_input();    // 3 x 224 x 224

/// Single-tower AlexNet with Krizhevsky's channel groups on conv2/4/5.
/// `norm` selects LRN (stock) or BatchNorm after conv layers (AlexNet-BN).
std::unique_ptr<Network> alexnet(std::int64_t classes = 1000,
                                 AlexNetNorm norm = AlexNetNorm::kLRN);

// Residual branches (bottleneck and basic blocks, in resnet and
// tiny_resnet) run every BN that a ReLU follows as one fused BatchNorm2d
// ("bn_relu(C)") instead of a bn + relu layer pair. Parameter and buffer
// names inside those branches therefore carry the fused layer's name and
// indices shifted by the removed ReLU layers: checkpoints of residual nets
// written before the fusion do not load into these nets. Top-level layers
// (the stem's bn/relu, the head) keep their names.

/// Bottleneck residual block: 1x1 (stride) -> 3x3 -> 1x1 expand to
/// 4 * mid_c, BN after each conv, the first two with their ReLU fused;
/// projection shortcut (1x1 conv + BN) when the shape changes.
LayerPtr bottleneck(std::int64_t in_c, std::int64_t mid_c,
                    std::int64_t stride);

/// Basic residual block: two 3x3 convs (the first strided), BN after each,
/// the first with its ReLU fused; projection shortcut when the shape
/// changes.
LayerPtr basic_block(std::int64_t in_c, std::int64_t out_c,
                     std::int64_t stride);

/// ResNet for ImageNet; depth in {18, 34, 50}. 50 uses bottleneck blocks
/// with stride on the first 1x1 (He et al. 2016 original), giving the
/// 7.7 GFLOP count the paper quotes.
std::unique_ptr<Network> resnet(std::int64_t depth,
                                std::int64_t classes = 1000);

/// AlexNet-style proxy for low-resolution synthetic ImageNet: conv trunk
/// with LRN or BN plus a dropout-regularized FC head. Input is
/// 3 x `resolution` x `resolution` (resolution >= 16).
/// `base_width` scales the conv widths (base_width/2x/2x) and the FC head
/// (8 * base_width); 32 reproduces the default proxy, 16 a faster micro one.
std::unique_ptr<Network> tiny_alexnet(std::int64_t classes,
                                      std::int64_t resolution,
                                      AlexNetNorm norm = AlexNetNorm::kBN,
                                      std::int64_t base_width = 32);

/// CIFAR-style residual proxy: 6n+2 layers (n basic blocks per stage,
/// widths 16/32/64), GAP head. Input is 3 x `resolution` x `resolution`.
std::unique_ptr<Network> tiny_resnet(std::int64_t blocks_per_stage,
                                     std::int64_t classes,
                                     std::int64_t resolution);

}  // namespace minsgd::nn

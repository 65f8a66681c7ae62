// LARS inspector: watch the layer-wise trust ratios that make large-batch
// training work.
//
//   $ ./lars_inspector
//
// Trains the proxy model at a large batch with LARS and prints, for the
// first few iterations, each layer's ||w||, ||g|| and resulting local
// learning-rate multiplier. The point to notice: the multipliers span
// orders of magnitude across layers — no single global learning rate could
// be right for all of them, which is exactly the paper's argument for
// layer-wise adaptation.
#include <cstdio>

#include "core/proxy.hpp"
#include "data/loader.hpp"
#include "nn/loss.hpp"
#include "optim/lars.hpp"
#include "optim/schedule.hpp"
#include "tensor/ops.hpp"

using namespace minsgd;

int main() {
  const ComputeContext ctx;
  auto proxy = core::bench_proxy();
  data::SyntheticImageNet dataset(proxy.dataset);
  auto net = proxy.alexnet_factory()();
  Rng rng(7);
  net->init(rng);
  auto params = net->params();

  const std::int64_t batch = proxy.base_batch * 16;
  data::ShardedLoader loader(dataset, batch);
  nn::SoftmaxCrossEntropy loss;
  optim::Lars lars({.trust_coeff = proxy.lars_trust,
                    .momentum = 0.9,
                    .weight_decay = 0.0005});
  optim::ConstantLr lr(optim::linear_scaled_lr(proxy.base_lr,
                                               proxy.base_batch, batch));

  std::printf("batch %lld, global lr %.3f, trust coefficient %.3f\n\n",
              static_cast<long long>(batch), lr.lr(0), proxy.lars_trust);

  Tensor logits, dlogits, dx;
  for (std::int64_t iter = 0; iter < 3; ++iter) {
    const auto b = loader.load_train(0, iter, ctx);
    net->zero_grad();
    net->forward(b.x, logits, true, ctx);
    loss.forward_backward(logits, b.labels, &dlogits, ctx);
    net->backward(b.x, logits, dlogits, dx, ctx);
    lars.step(params, lr.lr(iter), ctx);

    std::printf("iteration %lld\n", static_cast<long long>(iter));
    std::printf("  %-40s %10s %10s %12s\n", "parameter", "||w||", "||g||",
                "local mult");
    const auto& locals = lars.last_local_lrs();
    for (std::size_t i = 0; i < params.size(); ++i) {
      const double wn = l2_norm(params[i].value->span());
      const double gn = l2_norm(params[i].grad->span());
      if (locals[i] > 0) {
        std::printf("  %-40s %10.3f %10.4f %12.4f\n",
                    params[i].name.c_str(), wn, gn, locals[i]);
      } else {
        std::printf("  %-40s %10.3f %10.4f %12s\n", params[i].name.c_str(),
                    wn, gn, "(global)");
      }
    }
    double lo = 1e30, hi = 0.0;
    for (double l : locals) {
      if (l > 0) {
        lo = std::min(lo, l);
        hi = std::max(hi, l);
      }
    }
    std::printf("  spread: max/min local multiplier = %.1fx\n\n", hi / lo);
  }
  std::printf(
      "A single global LR would over-drive the layers at the top of the\n"
      "spread and starve the ones at the bottom; LARS gives each layer the\n"
      "step size its own weight/gradient geometry asks for.\n");
  return 0;
}

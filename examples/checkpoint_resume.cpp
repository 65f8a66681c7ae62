// Checkpoint / resume: train, save, reload into a fresh process-worth of
// state, verify identical inference, continue training.
//
//   $ ./checkpoint_resume
//
// Long cluster runs (the paper's took up to 45 hours) survive preemption
// by checkpointing; this example exercises the library's save/load path
// end to end.
#include <cstdio>

#include "core/proxy.hpp"
#include "nn/loss.hpp"
#include "nn/serialize.hpp"
#include "optim/sgd.hpp"
#include "train/trainer.hpp"

using namespace minsgd;

int main() {
  const ComputeContext ctx;
  auto proxy = core::bench_proxy();
  data::SyntheticImageNet ds(proxy.dataset);
  const std::string path = "checkpoint_demo.bin";

  // Phase 1: train for half the budget and checkpoint.
  auto net = proxy.alexnet_factory()();
  optim::Sgd opt({.momentum = 0.9, .weight_decay = 0.0005});
  optim::ConstantLr lr(0.05);
  train::TrainOptions options;
  options.global_batch = proxy.base_batch;
  options.epochs = 4;
  const auto phase1 = train::train_single(*net, opt, lr, ds, options);
  nn::save_checkpoint(*net, path);
  std::printf("phase 1: %lld epochs, test acc %.1f%% -> saved %s\n",
              static_cast<long long>(options.epochs),
              100 * phase1.final_test_acc, path.c_str());

  // Phase 2: fresh replica, load, verify identical evaluation.
  auto resumed = proxy.alexnet_factory()();
  Rng rng(999);  // deliberately different init, about to be overwritten
  resumed->init(rng);
  nn::load_checkpoint(*resumed, path);
  const double acc_loaded = train::evaluate(*resumed, ds, 256, ctx);
  std::printf("reloaded:  test acc %.1f%% (same weights, same accuracy)\n",
              100 * acc_loaded);

  // Phase 3: continue training from the checkpoint (fresh momentum, as
  // when resuming across processes without optimizer state).
  optim::Sgd opt2({.momentum = 0.9, .weight_decay = 0.0005});
  auto params = resumed->params();
  data::ShardedLoader loader(ds, options.global_batch);
  nn::SoftmaxCrossEntropy loss;
  Tensor logits, dlogits, dx;
  for (std::int64_t epoch = 0; epoch < 4; ++epoch) {
    for (std::int64_t it = 0; it < loader.iterations_per_epoch(); ++it) {
      const auto batch = loader.load_train(epoch + 100, it, ctx);
      resumed->zero_grad();
      resumed->forward(batch.x, logits, true, ctx);
      loss.forward_backward(logits, batch.labels, &dlogits, ctx);
      resumed->backward(batch.x, logits, dlogits, dx, ctx);
      opt2.step(params, 0.02, ctx);
    }
  }
  std::printf("resumed +4 epochs: test acc %.1f%%\n",
              100 * train::evaluate(*resumed, ds, 256, ctx));
  std::remove(path.c_str());
  return 0;
}

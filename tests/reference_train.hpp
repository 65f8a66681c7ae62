// Reference training loop: the sequential oracle for the step engine.
//
// Every trainer runs train::SyncReplica; this loop does the same work with
// none of it — no cluster, no communicator, no reducer, no RunLog. It
// initializes the network from the seed, then for every iteration of every
// epoch loads the whole global batch, runs forward + loss + backward and
// applies one optimizer step at schedule.lr(global iteration). A one-rank
// engine run reduces nothing and scales by exactly 1.0f, so on the same
// seeds its weights must equal this loop's byte for byte (test_train holds
// it to that); a P-rank run on a deterministic model matches it to
// float-reordering tolerance. There is no divergence guard and no
// evaluation: the caller evaluates the returned network if it needs to.
#pragma once

#include <cstdint>
#include <vector>

#include "data/loader.hpp"
#include "data/synthetic.hpp"
#include "nn/loss.hpp"
#include "nn/network.hpp"
#include "optim/optimizer.hpp"
#include "optim/schedule.hpp"
#include "tensor/context.hpp"
#include "tensor/rng.hpp"
#include "train/trainer.hpp"

namespace minsgd::testing {

/// Per-epoch means of the steps' batch loss and top-1 accuracy.
struct ReferenceEpoch {
  double train_loss = 0.0;
  double train_acc = 0.0;
};

/// Trains `net` in place with `opt` on options.global_batch,
/// options.epochs, options.init_seed and options.augment. Returns one
/// record per epoch.
inline std::vector<ReferenceEpoch> reference_train(
    nn::Network& net, optim::Optimizer& opt,
    const optim::LrSchedule& schedule, const data::SyntheticImageNet& dataset,
    const train::TrainOptions& options, const ComputeContext& ctx) {
  Rng init_rng(options.init_seed);
  net.init(init_rng);
  const data::ShardedLoader loader(dataset, options.global_batch, 0, 1,
                                   options.augment);
  nn::SoftmaxCrossEntropy loss;
  auto params = net.params();
  const std::int64_t iters = loader.iterations_per_epoch();
  Tensor logits, dlogits, dx;
  data::Batch batch;

  std::vector<ReferenceEpoch> epochs;
  std::int64_t global_iter = 0;
  for (std::int64_t epoch = 0; epoch < options.epochs; ++epoch) {
    double loss_sum = 0.0;
    std::int64_t correct = 0;
    for (std::int64_t it = 0; it < iters; ++it, ++global_iter) {
      loader.load_train_into(epoch, it, ctx, batch);
      net.zero_grad();
      net.forward(batch.x, logits, /*training=*/true, ctx);
      const nn::LossResult res =
          loss.forward_backward(logits, batch.labels, &dlogits, ctx);
      net.backward(batch.x, logits, dlogits, dx, ctx);
      opt.step(params, schedule.lr(global_iter), ctx);
      loss_sum += res.loss;
      correct += res.correct;
    }
    epochs.push_back(
        {loss_sum / static_cast<double>(iters),
         static_cast<double>(correct) /
             static_cast<double>(iters * options.global_batch)});
  }
  return epochs;
}

}  // namespace minsgd::testing

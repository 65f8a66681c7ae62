#include "train/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "core/csv.hpp"
#include "data/loader.hpp"
#include "nn/loss.hpp"
#include "obs/trace.hpp"

namespace minsgd::train {

void finalize(TrainResult& result) {
  for (const auto& e : result.epochs) {
    if (e.test_acc > result.best_test_acc) result.best_test_acc = e.test_acc;
  }
  if (!result.epochs.empty()) {
    result.final_test_acc = result.epochs.back().test_acc;
  }
}

void print_epoch(const EpochRecord& rec) {
  std::printf("epoch %3lld  lr %.5f  loss %.4f  train_acc %.4f  test_acc %.4f\n",
              static_cast<long long>(rec.epoch), rec.lr, rec.train_loss,
              rec.train_acc, rec.test_acc);
  std::fflush(stdout);
}

double evaluate(nn::Network& net, const data::SyntheticImageNet& dataset,
                std::int64_t eval_batch, const ComputeContext& ctx) {
  obs::ScopedSpan span("phase.eval", obs::cat::kEval);
  span.set_threads(static_cast<int>(ctx.threads()));
  data::ShardedLoader loader(dataset, std::min<std::int64_t>(
                                           eval_batch, dataset.train_size()));
  nn::SoftmaxCrossEntropy loss;
  Tensor logits;
  std::int64_t correct = 0;
  for (std::int64_t start = 0; start < dataset.test_size();
       start += eval_batch) {
    const auto batch = loader.load_test(start, eval_batch);
    net.forward(batch.x, logits, /*training=*/false, ctx);
    const auto res = loss.forward_backward(logits, batch.labels, nullptr, ctx);
    correct += res.correct;
  }
  return static_cast<double>(correct) /
         static_cast<double>(dataset.test_size());
}

std::int64_t top_k_correct(const Tensor& logits,
                           std::span<const std::int32_t> labels,
                           std::int64_t k) {
  if (logits.shape().rank() != 2) {
    throw std::invalid_argument("top_k_correct: logits must be 2-D");
  }
  const std::int64_t batch = logits.shape()[0];
  const std::int64_t classes = logits.shape()[1];
  if (static_cast<std::int64_t>(labels.size()) != batch) {
    throw std::invalid_argument("top_k_correct: label count mismatch");
  }
  if (k <= 0 || k > classes) {
    throw std::invalid_argument("top_k_correct: k out of range");
  }
  std::int64_t correct = 0;
  for (std::int64_t n = 0; n < batch; ++n) {
    const float* row = logits.data() + n * classes;
    const std::int32_t label = labels[static_cast<std::size_t>(n)];
    if (label < 0 || label >= classes) {
      throw std::out_of_range("top_k_correct: label out of range");
    }
    // Count how many classes strictly beat the label's logit; ties resolve
    // in the label's favour (consistent with argmax picking the first max).
    std::int64_t better = 0;
    for (std::int64_t c = 0; c < classes; ++c) {
      if (row[c] > row[label]) ++better;
    }
    if (better < k) ++correct;
  }
  return correct;
}

double evaluate_top_k(nn::Network& net,
                      const data::SyntheticImageNet& dataset, std::int64_t k,
                      std::int64_t eval_batch, const ComputeContext& ctx) {
  obs::ScopedSpan span("phase.eval", obs::cat::kEval);
  span.set_threads(static_cast<int>(ctx.threads()));
  data::ShardedLoader loader(dataset, std::min<std::int64_t>(
                                          eval_batch, dataset.train_size()));
  Tensor logits;
  std::int64_t correct = 0;
  for (std::int64_t start = 0; start < dataset.test_size();
       start += eval_batch) {
    const auto batch = loader.load_test(start, eval_batch);
    net.forward(batch.x, logits, /*training=*/false, ctx);
    correct += top_k_correct(logits, batch.labels, k);
  }
  return static_cast<double>(correct) /
         static_cast<double>(dataset.test_size());
}

}  // namespace minsgd::train

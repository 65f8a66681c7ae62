// Evaluation and per-epoch bookkeeping.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "data/synthetic.hpp"
#include "nn/network.hpp"
#include "tensor/context.hpp"

namespace minsgd::train {

/// One epoch's record; `lr` is the learning rate at the epoch's first
/// iteration.
struct EpochRecord {
  std::int64_t epoch = 0;
  double lr = 0.0;
  double train_loss = 0.0;
  double train_acc = 0.0;
  double test_acc = 0.0;
};

struct TrainResult {
  std::vector<EpochRecord> epochs;
  bool diverged = false;
  std::int64_t iterations_run = 0;
  double best_test_acc = 0.0;
  double final_test_acc = 0.0;
};

/// Sets best_test_acc / final_test_acc from the epoch records.
void finalize(TrainResult& result);

/// The trainers' verbose one-line epoch summary on stdout.
void print_epoch(const EpochRecord& rec);

/// Top-1 accuracy of `net` on the dataset's test split (eval mode).
double evaluate(nn::Network& net, const data::SyntheticImageNet& dataset,
                std::int64_t eval_batch, const ComputeContext& ctx);

/// Top-k hits over a batch of logits: a sample counts if its label is among
/// the k largest logits. k = 1 reproduces the loss head's `correct`.
std::int64_t top_k_correct(const Tensor& logits,
                           std::span<const std::int32_t> labels,
                           std::int64_t k);

/// Top-k accuracy on the test split.
double evaluate_top_k(nn::Network& net,
                      const data::SyntheticImageNet& dataset, std::int64_t k,
                      std::int64_t eval_batch, const ComputeContext& ctx);

}  // namespace minsgd::train

// Sharded batch loader for data-parallel training.
//
// The global batch of iteration t in epoch e is a fixed function of
// (dataset seed, e, t); worker `rank` of `world` materializes only its
// 1/world slice. This is the property that makes the sequential-consistency
// test possible: a single process with world=1 sees exactly the union of
// the P workers' shards, in the same order.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "data/augment.hpp"
#include "data/synthetic.hpp"
#include "tensor/context.hpp"
#include "tensor/tensor.hpp"

namespace minsgd::data {

/// One (local) batch of NCHW images and labels.
struct Batch {
  Tensor x;                           // local_batch x 3 x r x r
  std::vector<std::int32_t> labels;   // local_batch
};

class ShardedLoader {
 public:
  /// `global_batch` must be divisible by `world`; `rank` in [0, world).
  /// If `augment` is set, weak augmentation is applied to training samples
  /// with a per-(epoch, rank) deterministic stream.
  ShardedLoader(const SyntheticImageNet& dataset, std::int64_t global_batch,
                std::int64_t rank = 0, std::int64_t world = 1,
                std::optional<AugmentConfig> augment = std::nullopt);

  std::int64_t iterations_per_epoch() const;
  std::int64_t local_batch() const { return global_batch_ / world_; }
  std::int64_t global_batch() const { return global_batch_; }

  /// Materializes this rank's slice of global batch `iter` of `epoch`.
  /// Iterations wrap modulo iterations_per_epoch(). Per-sample generation +
  /// augmentation run batch-parallel on `ctx`; the augmentation RNG is keyed
  /// by (epoch, sample), so the batch bytes are identical for any thread
  /// count (and any rank/world split).
  Batch load_train(std::int64_t epoch, std::int64_t iter,
                   const ComputeContext& ctx) const;

  /// load_train into caller-owned storage: `b`'s x/labels are resized in
  /// place, so a trainer that keeps one Batch across iterations allocates
  /// nothing once its capacity fits the local batch. Same bytes as
  /// load_train.
  void load_train_into(std::int64_t epoch, std::int64_t iter,
                       const ComputeContext& ctx, Batch& b) const;

  /// Sequential test batches (no sharding, no augmentation); `start` is the
  /// first test index, count capped at the split size.
  Batch load_test(std::int64_t start, std::int64_t count) const;

 private:
  const SyntheticImageNet& dataset_;
  std::int64_t global_batch_, rank_, world_;
  std::optional<AugmentConfig> augment_;
};

}  // namespace minsgd::data

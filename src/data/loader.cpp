#include "data/loader.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "obs/trace.hpp"

namespace minsgd::data {

ShardedLoader::ShardedLoader(const SyntheticImageNet& dataset,
                             std::int64_t global_batch, std::int64_t rank,
                             std::int64_t world,
                             std::optional<AugmentConfig> augment)
    : dataset_(dataset),
      global_batch_(global_batch),
      rank_(rank),
      world_(world),
      augment_(augment) {
  if (world_ <= 0 || rank_ < 0 || rank_ >= world_) {
    throw std::invalid_argument("ShardedLoader: bad rank/world");
  }
  if (global_batch_ <= 0 || global_batch_ % world_ != 0) {
    throw std::invalid_argument(
        "ShardedLoader: global_batch must be a positive multiple of world");
  }
  if (global_batch_ > dataset_.train_size()) {
    throw std::invalid_argument(
        "ShardedLoader: global_batch exceeds the training set");
  }
}

std::int64_t ShardedLoader::iterations_per_epoch() const {
  return dataset_.train_size() / global_batch_;
}

Batch ShardedLoader::load_train(std::int64_t epoch, std::int64_t iter,
                                const ComputeContext& ctx) const {
  Batch b;
  load_train_into(epoch, iter, ctx, b);
  return b;
}

void ShardedLoader::load_train_into(std::int64_t epoch, std::int64_t iter,
                                    const ComputeContext& ctx,
                                    Batch& b) const {
  if (epoch < 0 || iter < 0) {
    throw std::invalid_argument("ShardedLoader::load_train: negative index");
  }
  obs::ScopedSpan span("data.load_train", obs::cat::kData);
  span.set_threads(static_cast<int>(ctx.threads()));
  iter %= iterations_per_epoch();

  // Deterministic epoch permutation (Fisher-Yates from a per-epoch stream).
  std::vector<std::int64_t> perm(
      static_cast<std::size_t>(dataset_.train_size()));
  std::iota(perm.begin(), perm.end(), 0);
  Rng shuffle_rng(dataset_.config().seed * 0x2545f4914f6cdd1dull +
                  static_cast<std::uint64_t>(epoch) + 1);
  for (std::size_t i = perm.size(); i > 1; --i) {
    const auto j = static_cast<std::size_t>(shuffle_rng.uniform_int(i));
    std::swap(perm[i - 1], perm[j]);
  }

  const std::int64_t lb = local_batch();
  const std::int64_t r = dataset_.resolution();
  const std::int64_t img = dataset_.image_numel();
  b.x.resize({lb, 3, r, r});
  b.labels.resize(static_cast<std::size_t>(lb));
  const std::int64_t base = iter * global_batch_ + rank_ * lb;
  // Each sample overwrites a disjoint slice of b.x and draws from its own
  // (epoch, sample)-keyed RNG, so batch-parallel materialization is safe and
  // thread-count-invariant, and reused storage needs no clearing.
  ctx.parallel_for(
      0, lb,
      [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t i = lo; i < hi; ++i) {
          const std::int64_t global_pos = base + i;  // global batch position
          const std::int64_t sample = perm[static_cast<std::size_t>(global_pos)];
          auto out = std::span<float>(b.x.data() + i * img,
                                      static_cast<std::size_t>(img));
          b.labels[static_cast<std::size_t>(i)] =
              dataset_.get_train(sample, out);
          if (augment_) {
            // Keyed by (epoch, sample): independent of rank/world so a
            // world=1 run sees byte-identical data to the union of P shards.
            Rng aug_rng(
                dataset_.config().seed ^
                (static_cast<std::uint64_t>(epoch) * 0x9e3779b97f4a7c15ull) ^
                (static_cast<std::uint64_t>(sample) + 0x51ull));
            augment_image(out, r, *augment_, aug_rng);
          }
        }
      },
      /*grain=*/1);
}

Batch ShardedLoader::load_test(std::int64_t start, std::int64_t count) const {
  if (start < 0 || start >= dataset_.test_size() || count <= 0) {
    throw std::invalid_argument("ShardedLoader::load_test: bad range");
  }
  count = std::min(count, dataset_.test_size() - start);
  const std::int64_t r = dataset_.resolution();
  const std::int64_t img = dataset_.image_numel();
  Batch b;
  b.x = Tensor({count, 3, r, r});
  b.labels.resize(static_cast<std::size_t>(count));
  for (std::int64_t i = 0; i < count; ++i) {
    auto out = std::span<float>(b.x.data() + i * img,
                                static_cast<std::size_t>(img));
    b.labels[static_cast<std::size_t>(i)] = dataset_.get_test(start + i, out);
  }
  return b;
}

}  // namespace minsgd::data

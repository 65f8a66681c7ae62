#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <set>
#include <vector>

#include "data/augment.hpp"
#include "data/loader.hpp"
#include "data/synthetic.hpp"
#include "obs/metrics.hpp"
#include "tensor/ops.hpp"

namespace minsgd {
namespace {

data::SynthConfig small_cfg() {
  data::SynthConfig c;
  c.classes = 4;
  c.resolution = 12;
  c.train_size = 256;
  c.test_size = 64;
  c.seed = 9;
  c.max_shift = 2;
  return c;
}

TEST(Synthetic, SamplesAreDeterministic) {
  data::SyntheticImageNet ds(small_cfg());
  std::vector<float> a(static_cast<std::size_t>(ds.image_numel()));
  std::vector<float> b(a.size());
  const auto la = ds.get_train(17, a);
  const auto lb = ds.get_train(17, b);
  EXPECT_EQ(la, lb);
  EXPECT_EQ(a, b);
}

TEST(Synthetic, TwoInstancesWithSameSeedAgree) {
  data::SyntheticImageNet d1(small_cfg());
  data::SyntheticImageNet d2(small_cfg());
  std::vector<float> a(static_cast<std::size_t>(d1.image_numel()));
  std::vector<float> b(a.size());
  EXPECT_EQ(d1.get_train(5, a), d2.get_train(5, b));
  EXPECT_EQ(a, b);
  EXPECT_EQ(d1.get_test(5, a), d2.get_test(5, b));
  EXPECT_EQ(a, b);
}

TEST(Synthetic, TrainAndTestSplitsDiffer) {
  data::SyntheticImageNet ds(small_cfg());
  std::vector<float> a(static_cast<std::size_t>(ds.image_numel()));
  std::vector<float> b(a.size());
  ds.get_train(0, a);
  ds.get_test(0, b);
  EXPECT_NE(a, b);
}

TEST(Synthetic, LabelsRoughlyBalanced) {
  auto cfg = small_cfg();
  cfg.train_size = 4000;
  data::SyntheticImageNet ds(cfg);
  std::vector<float> buf(static_cast<std::size_t>(ds.image_numel()));
  std::map<std::int32_t, int> hist;
  for (std::int64_t i = 0; i < cfg.train_size; ++i) {
    ++hist[ds.get_train(i, buf)];
  }
  ASSERT_EQ(hist.size(), 4u);
  for (const auto& [label, count] : hist) {
    EXPECT_NEAR(count, 1000, 150) << "label " << label;
  }
}

TEST(Synthetic, AllValuesFinite) {
  data::SyntheticImageNet ds(small_cfg());
  std::vector<float> buf(static_cast<std::size_t>(ds.image_numel()));
  for (std::int64_t i = 0; i < 32; ++i) {
    ds.get_train(i, buf);
    EXPECT_TRUE(all_finite(buf));
  }
}

TEST(Synthetic, PrototypesHaveUnitRms) {
  data::SyntheticImageNet ds(small_cfg());
  for (std::int64_t c = 0; c < 4; ++c) {
    const auto& p = ds.prototype(c);
    double ss = 0.0;
    for (std::int64_t i = 0; i < p.numel(); ++i) ss += p[i] * p[i];
    EXPECT_NEAR(std::sqrt(ss / static_cast<double>(p.numel())), 1.0, 1e-3);
  }
}

TEST(Synthetic, OutOfRangeIndicesThrow) {
  data::SyntheticImageNet ds(small_cfg());
  std::vector<float> buf(static_cast<std::size_t>(ds.image_numel()));
  EXPECT_THROW(ds.get_train(-1, buf), std::out_of_range);
  EXPECT_THROW(ds.get_train(256, buf), std::out_of_range);
  EXPECT_THROW(ds.get_test(64, buf), std::out_of_range);
}

TEST(Synthetic, WrongSpanSizeThrows) {
  data::SyntheticImageNet ds(small_cfg());
  std::vector<float> buf(3);
  EXPECT_THROW(ds.get_train(0, buf), std::invalid_argument);
}

TEST(Synthetic, InvalidConfigsThrow) {
  auto c = small_cfg();
  c.classes = 1;
  EXPECT_THROW(data::SyntheticImageNet{c}, std::invalid_argument);
  c = small_cfg();
  c.resolution = 4;
  EXPECT_THROW(data::SyntheticImageNet{c}, std::invalid_argument);
  c = small_cfg();
  c.max_shift = 6;
  EXPECT_THROW(data::SyntheticImageNet{c}, std::invalid_argument);
}

TEST(Synthetic, MirrorInvariantProducesMirroredSamples) {
  auto cfg = small_cfg();
  cfg.mirror_invariant = true;
  cfg.max_shift = 0;
  cfg.noise = 0.0f;
  cfg.distractor = 0.0f;
  data::SyntheticImageNet ds(cfg);
  const std::int64_t r = cfg.resolution;
  std::vector<float> img(static_cast<std::size_t>(ds.image_numel()));
  // With no noise/shift/distractor, every sample is its class prototype or
  // that prototype mirrored. Check both orientations occur.
  int mirrored = 0, straight = 0;
  for (std::int64_t i = 0; i < 64; ++i) {
    const auto label = ds.get_train(i, img);
    const auto& proto = ds.prototype(label);
    bool is_straight = true, is_mirrored = true;
    for (std::int64_t c = 0; c < 3 && (is_straight || is_mirrored); ++c) {
      for (std::int64_t y = 0; y < r; ++y) {
        for (std::int64_t x = 0; x < r; ++x) {
          const float v = img[static_cast<std::size_t>((c * r + y) * r + x)];
          if (v != proto.at(0, c, y, x)) is_straight = false;
          if (v != proto.at(0, c, y, r - 1 - x)) is_mirrored = false;
        }
      }
    }
    ASSERT_TRUE(is_straight || is_mirrored) << "sample " << i;
    if (is_mirrored && !is_straight) ++mirrored;
    if (is_straight) ++straight;
  }
  EXPECT_GT(mirrored, 10);
  EXPECT_GT(straight, 10);
}

// ---------------- augmentation ----------------

TEST(Augment, ZeroPadNoFlipIsIdentity) {
  Rng rng(1);
  std::vector<float> img(3 * 8 * 8);
  Rng fill(2);
  fill.fill_normal(img, 0.0f, 1.0f);
  auto orig = img;
  data::AugmentConfig cfg{.pad = 0, .hflip = false};
  data::augment_image(img, 8, cfg, rng);
  EXPECT_EQ(img, orig);
}

TEST(Augment, FlipIsInvolution) {
  std::vector<float> img(3 * 8 * 8);
  Rng fill(3);
  fill.fill_normal(img, 0.0f, 1.0f);
  auto orig = img;
  data::AugmentConfig cfg{.pad = 0, .hflip = true};
  // Force two flips by scanning seeds until both flip (prob 1/2 each).
  int flips = 0;
  for (std::uint64_t seed = 0; flips < 2 && seed < 64; ++seed) {
    Rng rng(seed);
    auto probe = img;
    data::augment_image(probe, 8, cfg, rng);
    if (probe != img) {
      img = probe;
      ++flips;
    }
  }
  ASSERT_EQ(flips, 2);
  EXPECT_EQ(img, orig);  // flip twice = identity
}

TEST(Augment, CropKeepsSizeAndIsDeterministic) {
  std::vector<float> a(3 * 8 * 8, 1.0f), b(3 * 8 * 8, 1.0f);
  data::AugmentConfig cfg{.pad = 2, .hflip = false};
  Rng r1(5), r2(5);
  data::augment_image(a, 8, cfg, r1);
  data::augment_image(b, 8, cfg, r2);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.size(), 3u * 64u);
}

TEST(Augment, WrongSizeThrows) {
  std::vector<float> img(10);
  Rng rng(1);
  data::AugmentConfig cfg;
  EXPECT_THROW(data::augment_image(img, 8, cfg, rng), std::invalid_argument);
}

// ---------------- sharded loader ----------------

TEST(Loader, IterationsPerEpoch) {
  data::SyntheticImageNet ds(small_cfg());
  data::ShardedLoader loader(ds, 64);
  EXPECT_EQ(loader.iterations_per_epoch(), 4);
}

TEST(Loader, LocalBatchIsGlobalOverWorld) {
  const ComputeContext ctx;
  data::SyntheticImageNet ds(small_cfg());
  data::ShardedLoader loader(ds, 64, 1, 4);
  EXPECT_EQ(loader.local_batch(), 16);
  const auto b = loader.load_train(0, 0, ctx);
  EXPECT_EQ(b.x.shape(), Shape({16, 3, 12, 12}));
  EXPECT_EQ(b.labels.size(), 16u);
}

TEST(Loader, ShardsPartitionTheGlobalBatch) {
  // The union of P rank-shards must equal the world=1 batch, in order.
  const ComputeContext ctx;
  data::SyntheticImageNet ds(small_cfg());
  const std::int64_t B = 32;
  data::ShardedLoader whole(ds, B, 0, 1);
  const auto full = whole.load_train(2, 1, ctx);
  const int world = 4;
  const std::int64_t lb = B / world;
  const std::int64_t img = ds.image_numel();
  for (int r = 0; r < world; ++r) {
    data::ShardedLoader shard(ds, B, r, world);
    const auto part = shard.load_train(2, 1, ctx);
    for (std::int64_t i = 0; i < lb; ++i) {
      EXPECT_EQ(part.labels[static_cast<std::size_t>(i)],
                full.labels[static_cast<std::size_t>(r * lb + i)]);
      for (std::int64_t k = 0; k < img; ++k) {
        ASSERT_EQ(part.x[i * img + k], full.x[(r * lb + i) * img + k])
            << "rank " << r << " sample " << i;
      }
    }
  }
}

TEST(Loader, ShardingPartitionHoldsWithAugmentation) {
  const ComputeContext ctx;
  data::SyntheticImageNet ds(small_cfg());
  const std::int64_t B = 16;
  data::AugmentConfig aug;
  data::ShardedLoader whole(ds, B, 0, 1, aug);
  const auto full = whole.load_train(1, 0, ctx);
  data::ShardedLoader shard(ds, B, 1, 2, aug);
  const auto part = shard.load_train(1, 0, ctx);
  const std::int64_t img = ds.image_numel();
  for (std::int64_t i = 0; i < B / 2; ++i) {
    for (std::int64_t k = 0; k < img; ++k) {
      ASSERT_EQ(part.x[i * img + k], full.x[(B / 2 + i) * img + k]);
    }
  }
}

TEST(Loader, EpochsUseDifferentPermutations) {
  const ComputeContext ctx;
  data::SyntheticImageNet ds(small_cfg());
  data::ShardedLoader loader(ds, 64);
  const auto e0 = loader.load_train(0, 0, ctx);
  const auto e1 = loader.load_train(1, 0, ctx);
  EXPECT_NE(e0.labels, e1.labels);  // overwhelmingly likely
}

TEST(Loader, EachEpochTouchesEverySampleOnce) {
  // Collect all labels over one epoch from all shards; multiset must match
  // the dataset's own labels.
  const ComputeContext ctx;
  auto cfg = small_cfg();
  data::SyntheticImageNet ds(cfg);
  std::multiset<std::int32_t> seen;
  data::ShardedLoader loader(ds, 64);
  for (std::int64_t it = 0; it < loader.iterations_per_epoch(); ++it) {
    const auto b = loader.load_train(3, it, ctx);
    seen.insert(b.labels.begin(), b.labels.end());
  }
  std::multiset<std::int32_t> expected;
  std::vector<float> buf(static_cast<std::size_t>(ds.image_numel()));
  for (std::int64_t i = 0; i < cfg.train_size; ++i) {
    expected.insert(ds.get_train(i, buf));
  }
  EXPECT_EQ(seen, expected);
}

TEST(Loader, LoadTrainIntoMatchesLoadTrainAndReusesStorage) {
  // The trainers keep one Batch across iterations: refilling it must give
  // load_train's exact bytes and labels (augmentation on, a sharded rank,
  // several epochs/iterations), without moving or regrowing the storage.
  data::SyntheticImageNet ds(small_cfg());
  data::ShardedLoader loader(ds, 32, 1, 2, data::AugmentConfig{});
  const ComputeContext ctx(2);
  data::Batch reused;
  loader.load_train_into(0, 0, ctx, reused);
  const float* storage = reused.x.data();
  auto& allocs = obs::metrics().counter("tensor.allocs");
  for (std::int64_t epoch = 0; epoch < 3; ++epoch) {
    for (std::int64_t it = 0; it < loader.iterations_per_epoch(); ++it) {
      const auto before = allocs.value();
      loader.load_train_into(epoch, it, ctx, reused);
      EXPECT_EQ(allocs.value(), before) << "epoch " << epoch << " it " << it;
      const auto fresh = loader.load_train(epoch, it, ctx);
      ASSERT_EQ(reused.x.shape(), fresh.x.shape());
      ASSERT_EQ(std::vector<float>(reused.x.span().begin(),
                                   reused.x.span().end()),
                std::vector<float>(fresh.x.span().begin(),
                                   fresh.x.span().end()))
          << "epoch " << epoch << " it " << it;
      EXPECT_EQ(reused.labels, fresh.labels);
      EXPECT_EQ(reused.x.data(), storage);
    }
  }
}

TEST(Loader, TestBatchesSequentialAndCapped) {
  data::SyntheticImageNet ds(small_cfg());
  data::ShardedLoader loader(ds, 64);
  const auto b = loader.load_test(60, 100);
  EXPECT_EQ(b.x.shape()[0], 4);  // capped at test_size - start
}

TEST(Loader, InvalidConfigsThrow) {
  const ComputeContext ctx;
  data::SyntheticImageNet ds(small_cfg());
  EXPECT_THROW(data::ShardedLoader(ds, 0), std::invalid_argument);
  EXPECT_THROW(data::ShardedLoader(ds, 63, 0, 2), std::invalid_argument);
  EXPECT_THROW(data::ShardedLoader(ds, 64, 2, 2), std::invalid_argument);
  EXPECT_THROW(data::ShardedLoader(ds, 512), std::invalid_argument);
  data::ShardedLoader ok(ds, 64);
  EXPECT_THROW(ok.load_train(-1, 0, ctx), std::invalid_argument);
  EXPECT_THROW(ok.load_test(64, 1), std::invalid_argument);
}

}  // namespace
}  // namespace minsgd

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdlib>
#include <mutex>
#include <stdexcept>
#include <vector>

#include "comm/cluster.hpp"
#include "tensor/context.hpp"

namespace minsgd {
namespace {

// -- chunk geometry ---------------------------------------------------------
// The determinism contract rests on chunk boundaries being a function of
// (n, grain) only — never of the thread count. These tests pin the geometry.

TEST(ChunkGeometry, CountRespectsGrainAndCap) {
  EXPECT_EQ(ComputeContext::chunk_count(0, 1), 0);
  EXPECT_EQ(ComputeContext::chunk_count(1, 1), 1);
  EXPECT_EQ(ComputeContext::chunk_count(8, 1), 8);
  // Capped at kMaxChunks no matter how large n gets.
  EXPECT_EQ(ComputeContext::chunk_count(std::int64_t{1} << 20, 1),
            ComputeContext::kMaxChunks);
  // Grain bounds the number of chunks from above: ceil(n / grain).
  EXPECT_EQ(ComputeContext::chunk_count(100, 64), 2);
  EXPECT_EQ(ComputeContext::chunk_count(64, 64), 1);
}

TEST(ChunkGeometry, BoundsPartitionTheRange) {
  for (std::int64_t n : {1, 5, 16, 17, 100, 1000}) {
    const std::int64_t chunks = ComputeContext::chunk_count(n, 1);
    std::int64_t covered = 0;
    std::int64_t prev_hi = 0;
    for (std::int64_t c = 0; c < chunks; ++c) {
      const auto [lo, hi] = ComputeContext::chunk_bounds(n, chunks, c);
      EXPECT_EQ(lo, prev_hi) << "gap/overlap at chunk " << c << " n=" << n;
      EXPECT_LE(lo, hi);
      covered += hi - lo;
      prev_hi = hi;
    }
    EXPECT_EQ(prev_hi, n);
    EXPECT_EQ(covered, n);
  }
}

TEST(ChunkGeometry, IndependentOfContextThreadCount) {
  // Identical chunking regardless of which context executes: for_chunks on
  // a 1-thread and an 8-thread context must report the same (c, lo, hi)
  // triples (order of execution may differ; the set may not).
  auto collect = [](const ComputeContext& ctx) {
    std::vector<std::array<std::int64_t, 3>> out(
        static_cast<std::size_t>(ComputeContext::chunk_count(1000, 8)));
    std::mutex mu;
    ctx.for_chunks(1000, 8,
                   [&](std::int64_t c, std::int64_t lo, std::int64_t hi) {
                     std::lock_guard lk(mu);
                     out[static_cast<std::size_t>(c)] = {c, lo, hi};
                   });
    return out;
  };
  ComputeContext one(1), eight(8);
  EXPECT_EQ(collect(one), collect(eight));
}

// -- execution --------------------------------------------------------------

TEST(ComputeContext, ParallelForCoversRangeExactlyOnce) {
  ComputeContext ctx(4);
  std::vector<std::atomic<int>> hits(513);
  ctx.parallel_for(
      0, 513,
      [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t i = lo; i < hi; ++i) {
          hits[static_cast<std::size_t>(i)].fetch_add(1);
        }
      },
      /*grain=*/1);
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ComputeContext, ParallelForEmptyRangeIsNoOp) {
  ComputeContext ctx(4);
  bool called = false;
  ctx.parallel_for(5, 5, [&](std::int64_t, std::int64_t) { called = true; });
  ctx.parallel_for(5, 3, [&](std::int64_t, std::int64_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ComputeContext, ParallelForOffsetsNonZeroBegin) {
  ComputeContext ctx(4);
  std::atomic<std::int64_t> sum{0};
  ctx.parallel_for(
      10, 20,
      [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t i = lo; i < hi; ++i) sum.fetch_add(i);
      },
      /*grain=*/2);
  EXPECT_EQ(sum.load(), 145);  // 10+..+19
}

TEST(ComputeContext, ParallelForRangeBelowGrainIsOneChunk) {
  // grain larger than the range: one chunk, run inline on the caller.
  ComputeContext ctx(4);
  EXPECT_EQ(ComputeContext::chunk_count(8, 1024), 1);
  std::vector<int> hits(8, 0);
  ctx.parallel_for(
      0, 8,
      [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t i = lo; i < hi; ++i) ++hits[i];
      },
      /*grain=*/1024);
  EXPECT_EQ(hits, std::vector<int>(8, 1));
}

TEST(ComputeContext, SingleThreadRunsInlineWithoutPool) {
  ComputeContext ctx(1);
  EXPECT_EQ(ctx.threads(), 1u);
  EXPECT_EQ(ctx.pool_stats().workers, 0u);
  // for_chunks visits only non-empty chunks (ceil-sized steps can leave a
  // trailing empty one).
  const std::int64_t chunks = ComputeContext::chunk_count(100, 1);
  std::int64_t expected = 0;
  for (std::int64_t c = 0; c < chunks; ++c) {
    const auto [lo, hi] = ComputeContext::chunk_bounds(100, chunks, c);
    if (lo < hi) ++expected;
  }
  std::int64_t calls = 0;
  ctx.for_chunks(100, 1, [&](std::int64_t, std::int64_t, std::int64_t) {
    // ctx is ComputeContext(1): chunks run strictly inline on this thread.
    // minsgd-analyze: allow(det-reduction): ctx is ComputeContext(1), so
    // for_chunks runs every chunk inline on this thread (no concurrency)
    ++calls;
  });
  EXPECT_EQ(calls, expected);
}

TEST(ComputeContext, NestedParallelRunsInline) {
  // A parallel region launched from inside a chunk must not re-enter the
  // pool (deadlock/oversubscription); it runs inline on the worker.
  ComputeContext ctx(4);
  std::atomic<int> total{0};
  ctx.parallel_for(
      0, 8,
      [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t i = lo; i < hi; ++i) {
          ctx.parallel_for(
              0, 8,
              [&](std::int64_t l2, std::int64_t h2) {
                total.fetch_add(static_cast<int>(h2 - l2));
              },
              /*grain=*/1);
        }
      },
      /*grain=*/1);
  EXPECT_EQ(total.load(), 64);
}

TEST(ComputeContext, ExceptionInChunkPropagates) {
  ComputeContext ctx(4);
  EXPECT_THROW(
      ctx.parallel_for(
          0, 16,
          [&](std::int64_t lo, std::int64_t) {
            if (lo >= 0) throw std::runtime_error("boom");
          },
          /*grain=*/1),
      std::runtime_error);
  // The context stays usable after a failed region.
  std::atomic<int> n{0};
  ctx.parallel_for(
      0, 16,
      [&](std::int64_t lo, std::int64_t hi) {
        n.fetch_add(static_cast<int>(hi - lo));
      },
      /*grain=*/1);
  EXPECT_EQ(n.load(), 16);
}

TEST(ComputeContext, PoolStatsCountWorkers) {
  ComputeContext ctx(4);
  EXPECT_EQ(ctx.pool_stats().workers, 3u);  // caller is the 4th executor
  ctx.parallel_for(
      0, std::int64_t{1} << 16, [](std::int64_t, std::int64_t) {},
      /*grain=*/1);
  EXPECT_EQ(ctx.pool_stats().workers, 3u);  // a region keeps its pool
}

TEST(ComputeContext, DefaultThreadsReadsEnv) {
  ::setenv("MINSGD_THREADS", "3", 1);
  EXPECT_EQ(ComputeContext::default_threads(), 3u);
  ::unsetenv("MINSGD_THREADS");
  EXPECT_GE(ComputeContext::default_threads(), 1u);
}

// -- cluster thread-budget arithmetic --------------------------------------

TEST(ClusterBudget, SplitsGlobalBudgetAcrossRanks) {
  comm::SimCluster cluster(comm::ClusterOptions{4, 8});
  std::size_t workers = 0;
  for (int r = 0; r < 4; ++r) {
    EXPECT_EQ(cluster.rank_context(r).threads(), 2u);
    workers += cluster.rank_context(r).pool_stats().workers;
  }
  // 4 ranks x (2 threads - caller) = 4 live pool workers <= budget of 8.
  EXPECT_EQ(workers, 4u);
}

TEST(ClusterBudget, NeverBelowOneThreadPerRank) {
  // world > budget: every rank still gets an inline (1-thread) context and
  // zero pool workers — no oversubscription no matter the world size.
  comm::SimCluster cluster(comm::ClusterOptions{8, 4});
  for (int r = 0; r < 8; ++r) {
    EXPECT_EQ(cluster.rank_context(r).threads(), 1u);
    EXPECT_EQ(cluster.rank_context(r).pool_stats().workers, 0u);
  }
}

TEST(ClusterBudget, RankContextRangeChecked) {
  comm::SimCluster cluster(comm::ClusterOptions{2, 2});
  EXPECT_THROW(cluster.rank_context(-1), std::invalid_argument);
  EXPECT_THROW(cluster.rank_context(2), std::invalid_argument);
}

TEST(ClusterBudget, CommunicatorCtxIsTheRankContext) {
  comm::SimCluster cluster(comm::ClusterOptions{2, 4});
  cluster.run([&](comm::Communicator& comm) {
    EXPECT_EQ(&comm.ctx(), &cluster.rank_context(comm.rank()));
    EXPECT_EQ(comm.ctx().threads(), 2u);
    // Rank threads can actually use their slice.
    std::atomic<int> n{0};
    comm.ctx().parallel_for(
        0, 100,
        [&](std::int64_t lo, std::int64_t hi) {
          n.fetch_add(static_cast<int>(hi - lo));
        },
        /*grain=*/1);
    EXPECT_EQ(n.load(), 100);
  });
}

}  // namespace
}  // namespace minsgd

// ComputeContext: a per-caller intra-op parallelism handle.
//
// A ComputeContext bundles a thread budget, a private worker pool, and a
// deterministic chunking policy, and flows from the trainers through
// Network::forward/backward into every Layer, the element-wise ops, the
// optimizer steps, and the augmentation pipeline. Two rules make the whole
// stack bit-identical for any thread count:
//
//   1. Chunk boundaries are a function of (range size, grain) ONLY — never
//      of threads(). chunk_count caps the count at kMaxChunks so reduction
//      partials stay small.
//   2. Reductions compute one partial per chunk and combine the partials in
//      fixed chunk order on the calling thread. A chunk's partial may be
//      computed interleaved with other chunks' partials (one pass carrying
//      several chunks, as kernels::lane_partials does), never reordered
//      within the chunk.
//
// Threads pull chunks from a shared atomic cursor, so which thread runs a
// chunk varies run to run — but since every chunk's work and every combine
// order is fixed, the results do not. A context with T threads owns T-1
// pool workers; the calling thread executes chunks too, so a SimCluster
// rank thread counts toward its own budget. Nested parallel regions run
// inline (a thread-local in-region flag), which is what lets P rank threads
// each drive their own context without oversubscription.
//
// There is no process-wide context and no public pool: every intra-op
// thread belongs to a ComputeContext its caller constructed and passed in
// explicitly, so a thread budget split between rank threads stays split.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>

namespace minsgd {

/// Snapshot of a context's pool (zero workers for a 1-thread context).
struct PoolStats {
  std::size_t workers = 0;
};

class ComputeContext {
 public:
  /// Upper bound on deterministic chunks per region: reduction code keeps
  /// one partial per chunk, so this caps both partial-buffer memory and the
  /// fixed-order combine cost, independent of how many threads exist.
  static constexpr std::int64_t kMaxChunks = 16;

  /// `threads == 0` resolves to default_threads(). A context with T threads
  /// spawns T-1 pool workers (the caller is the T-th executor); T == 1 owns
  /// no pool and runs everything inline.
  explicit ComputeContext(std::size_t threads = 0);
  ~ComputeContext();

  ComputeContext(const ComputeContext&) = delete;
  ComputeContext& operator=(const ComputeContext&) = delete;

  std::size_t threads() const { return threads_; }
  PoolStats pool_stats() const;

  /// Deterministic chunk count for a range of `n` with minimum chunk size
  /// `grain`: min(kMaxChunks, ceil(n / grain)). Depends only on (n, grain).
  static std::int64_t chunk_count(std::int64_t n, std::int64_t grain = 1);

  /// Half-open bounds of chunk `c` of `num_chunks` over [0, n). Trailing
  /// chunks may be empty (lo == hi).
  static std::pair<std::int64_t, std::int64_t> chunk_bounds(
      std::int64_t n, std::int64_t num_chunks, std::int64_t c);

  /// Runs fn(c, lo, hi) for every non-empty chunk c of [0, n), chunked by
  /// chunk_count(n, grain). Chunks execute concurrently across the pool but
  /// the geometry — and therefore any per-chunk partial a caller combines in
  /// chunk order — is identical for every thread count.
  void for_chunks(
      std::int64_t n, std::int64_t grain,
      const std::function<void(std::int64_t, std::int64_t, std::int64_t)>& fn)
      const;

  /// for_chunks with an explicit chunk count (clamped to [1, n]). The caller
  /// must derive `num_chunks` from problem shape only (never threads()) to
  /// keep the determinism guarantee — used e.g. by Conv2d::backward to cap
  /// per-chunk dW partial memory.
  void for_chunks_n(
      std::int64_t n, std::int64_t num_chunks,
      const std::function<void(std::int64_t, std::int64_t, std::int64_t)>& fn)
      const;

  /// Runs fn(lo, hi) over [begin, end) in deterministic chunks; safe for
  /// disjoint writes (no reduction).
  void parallel_for(std::int64_t begin, std::int64_t end,
                    const std::function<void(std::int64_t, std::int64_t)>& fn,
                    std::int64_t grain = 1024) const;

  /// MINSGD_THREADS environment variable if set and positive, else
  /// hardware_concurrency(). The total intra-op budget a process splits.
  static std::size_t default_threads();

 private:
  class ThreadPool;  // defined in context.cpp
  std::size_t threads_;
  std::unique_ptr<ThreadPool> pool_;  // null when threads_ == 1
};

}  // namespace minsgd

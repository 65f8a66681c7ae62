#include "tensor/context.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace minsgd {
namespace {

// Set while a thread executes inside a parallel region (a pool worker's
// task, or a caller running its own region's chunks). Nested regions check
// it and run inline: re-entering a pool from a worker could deadlock if
// every worker blocked on its own sub-chunks, and re-entering from a rank
// thread would oversubscribe.
thread_local bool g_in_parallel_region = false;

class ParallelRegionGuard {
 public:
  ParallelRegionGuard() : prev_(g_in_parallel_region) {
    g_in_parallel_region = true;
  }
  ~ParallelRegionGuard() { g_in_parallel_region = prev_; }
  ParallelRegionGuard(const ParallelRegionGuard&) = delete;
  ParallelRegionGuard& operator=(const ParallelRegionGuard&) = delete;

 private:
  bool prev_;
};

}  // namespace

// The fixed-size worker pool a context with T > 1 threads owns: T-1 workers
// pulling void() tasks from one queue. Destruction runs every queued task,
// then joins the workers.
class ComputeContext::ThreadPool {
 public:
  explicit ThreadPool(std::size_t workers) {
    workers_.reserve(workers);
    for (std::size_t i = 0; i < workers; ++i) {
      workers_.emplace_back([this] { worker_loop(); });
    }
  }

  ~ThreadPool() {
    {
      std::lock_guard lk(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    for (auto& w : workers_) w.join();
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  void submit(std::function<void()> task) {
    {
      std::lock_guard lk(mu_);
      tasks_.push(std::move(task));
    }
    cv_.notify_one();
  }

 private:
  void worker_loop() {
    for (;;) {
      std::function<void()> task;
      {
        std::unique_lock lk(mu_);
        cv_.wait(lk, [this] { return stop_ || !tasks_.empty(); });
        if (stop_ && tasks_.empty()) return;
        task = std::move(tasks_.front());
        tasks_.pop();
      }
      ParallelRegionGuard in_region;
      task();
    }
  }

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
};

ComputeContext::ComputeContext(std::size_t threads)
    : threads_(threads == 0 ? default_threads() : threads) {
  if (threads_ > 1) {
    pool_ = std::make_unique<ThreadPool>(threads_ - 1);
  }
}

ComputeContext::~ComputeContext() = default;

PoolStats ComputeContext::pool_stats() const {
  if (!pool_) return {};
  return {pool_->size()};
}

std::int64_t ComputeContext::chunk_count(std::int64_t n, std::int64_t grain) {
  if (n <= 0) return 0;
  if (grain < 1) grain = 1;
  return std::min<std::int64_t>(kMaxChunks, (n + grain - 1) / grain);
}

std::pair<std::int64_t, std::int64_t> ComputeContext::chunk_bounds(
    std::int64_t n, std::int64_t num_chunks, std::int64_t c) {
  const std::int64_t step = (n + num_chunks - 1) / num_chunks;
  const std::int64_t lo = std::min(n, c * step);
  const std::int64_t hi = std::min(n, lo + step);
  return {lo, hi};
}

void ComputeContext::for_chunks(
    std::int64_t n, std::int64_t grain,
    const std::function<void(std::int64_t, std::int64_t, std::int64_t)>& fn)
    const {
  for_chunks_n(n, chunk_count(n, grain), fn);
}

void ComputeContext::for_chunks_n(
    std::int64_t n, std::int64_t num_chunks,
    const std::function<void(std::int64_t, std::int64_t, std::int64_t)>& fn)
    const {
  if (n <= 0) return;
  const std::int64_t chunks = std::clamp<std::int64_t>(num_chunks, 1, n);

  // Inline path: single chunk, no pool, or already inside a parallel region
  // (nested regions must not re-enter a pool).
  if (chunks == 1 || !pool_ || g_in_parallel_region) {
    for (std::int64_t c = 0; c < chunks; ++c) {
      const auto [lo, hi] = chunk_bounds(n, chunks, c);
      if (lo < hi) fn(c, lo, hi);
    }
    return;
  }

  // Work-stealing over a shared cursor: helpers and the caller all pull the
  // next chunk index. The chunk *geometry* is fixed; only the executing
  // thread varies.
  std::atomic<std::int64_t> next{0};
  std::atomic<bool> failed{false};
  std::exception_ptr error;
  std::mutex error_mu;
  auto run_chunks = [&] {
    try {
      std::int64_t c;
      while (!failed.load(std::memory_order_relaxed) &&
             (c = next.fetch_add(1, std::memory_order_relaxed)) < chunks) {
        const auto [lo, hi] = chunk_bounds(n, chunks, c);
        if (lo < hi) fn(c, lo, hi);
      }
    } catch (...) {
      failed.store(true, std::memory_order_relaxed);
      std::lock_guard lk(error_mu);
      if (!error) error = std::current_exception();
    }
  };

  const std::int64_t helpers =
      std::min<std::int64_t>(static_cast<std::int64_t>(pool_->size()),
                             chunks - 1);
  std::int64_t done = 0;  // guarded by mu
  std::mutex mu;
  std::condition_variable cv;
  for (std::int64_t h = 0; h < helpers; ++h) {
    pool_->submit([&] {
      run_chunks();
      // A helper's LAST access to this stack frame must happen under mu:
      // the caller cannot observe done == helpers and destroy the frame
      // until the lock is released.
      std::lock_guard lk(mu);
      if (++done == helpers) cv.notify_one();
    });
  }
  {
    // The caller participates; nested parallel calls inside fn run inline.
    ParallelRegionGuard in_region;
    run_chunks();
  }
  {
    std::unique_lock lk(mu);
    cv.wait(lk, [&] { return done == helpers; });
  }
  if (error) std::rethrow_exception(error);
}

void ComputeContext::parallel_for(
    std::int64_t begin, std::int64_t end,
    const std::function<void(std::int64_t, std::int64_t)>& fn,
    std::int64_t grain) const {
  if (end <= begin) return;
  for_chunks(end - begin, grain,
             [&](std::int64_t, std::int64_t lo, std::int64_t hi) {
               fn(begin + lo, begin + hi);
             });
}

std::size_t ComputeContext::default_threads() {
  if (const char* env = std::getenv("MINSGD_THREADS")) {
    char* end = nullptr;
    const long v = std::strtol(env, &end, 10);
    if (end != env && v > 0) return static_cast<std::size_t>(v);
  }
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

}  // namespace minsgd

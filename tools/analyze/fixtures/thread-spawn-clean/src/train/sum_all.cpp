// Clean: a correctly justified suppression outside the thread layer and the
// per-chunk-partials reduction idiom.
#include <cstdint>
#include <span>
#include <thread>

struct Ctx {
  static constexpr std::int64_t kMaxChunks = 16;
  static std::int64_t chunk_count(std::int64_t n, std::int64_t g) {
    const std::int64_t c = (n + g - 1) / g;
    return c < kMaxChunks ? c : kMaxChunks;
  }
  void for_chunks_n(std::int64_t, std::int64_t, auto fn) const {
    fn(0, 0, 0);
  }
};

double sum_all(const Ctx& ctx, std::span<const float> x) {
  const std::int64_t n = static_cast<std::int64_t>(x.size());
  const std::int64_t chunks = Ctx::chunk_count(n, 1024);
  double partial[Ctx::kMaxChunks] = {};
  ctx.for_chunks_n(n, chunks,
                   [&](std::int64_t c, std::int64_t lo, std::int64_t hi) {
                     double acc = 0.0;
                     for (std::int64_t i = lo; i < hi; ++i) acc += x[i];
                     partial[c] = acc;
                   });
  double total = 0.0;
  for (std::int64_t c = 0; c < chunks; ++c) total += partial[c];
  return total;
}

void justified_spawn() {
  // minsgd-analyze: allow(thread-spawn): justified_spawn shows a
  // well-formed suppression whose justification spans comment lines.
  std::thread t([] {});
  t.join();
}

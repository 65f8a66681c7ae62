// Firing: compound-assign to a captured variable inside a parallel region,
// in a test file. The canonical nondeterminism/race bug the per-chunk-partials
// idiom exists to prevent. Expected finding: det-reduction/parallel-shared-accum
#include <cstdint>
#include <span>

struct Ctx {
  void parallel_for(std::int64_t, std::int64_t, auto fn,
                    std::int64_t = 1024) const {
    fn(0, 0);
  }
};

double sum_all(const Ctx& ctx, std::span<const float> x) {
  double total = 0.0;
  ctx.parallel_for(0, static_cast<std::int64_t>(x.size()),
                   [&](std::int64_t lo, std::int64_t hi) {
                     for (std::int64_t i = lo; i < hi; ++i) total += x[i];
                   });
  return total;
}

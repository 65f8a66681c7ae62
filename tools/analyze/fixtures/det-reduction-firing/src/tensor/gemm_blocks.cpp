// Firing: the kernel-driver shape of the shared-accumulator bug. A packed
// microkernel lambda's per-chunk scratch writes — subscripted panel and
// register-tile accumulator stores, for-init locals — are all legal and must
// NOT fire; the one violation is the captured FLOP counter compound-assigned
// from inside the parallel region. Expected finding:
// det-reduction/parallel-shared-accum (exactly one, on the counter line).
#include <cstdint>
#include <vector>

struct Ctx {
  void parallel_for(std::int64_t, std::int64_t, auto fn,
                    std::int64_t = 1) const {
    fn(0, 1);
  }
};

void gemm_blocks(const Ctx& ctx, const float* a, const float* b, float* c,
                 std::int64_t blocks, std::int64_t kc) {
  double total_flops = 0.0;  // captured: needs a per-chunk partial instead
  ctx.parallel_for(
      0, blocks,
      [&](std::int64_t blk_lo, std::int64_t blk_hi) {
        std::vector<float> apack(static_cast<std::size_t>(6 * kc));
        std::vector<float> bpack(static_cast<std::size_t>(16 * kc));
        for (std::int64_t q = 0; q < kc; ++q) {
          apack[static_cast<std::size_t>(q)] = a[q];
          bpack[static_cast<std::size_t>(q)] = b[q];
        }
        for (std::int64_t blk = blk_lo; blk < blk_hi; ++blk) {
          float acc[6][16] = {};
          for (std::int64_t p = 0; p < kc; ++p) {
            for (std::int64_t i = 0; i < 6; ++i) {
              const float av = apack[static_cast<std::size_t>(p * 6 + i) %
                                     apack.size()];
              for (std::int64_t j = 0; j < 16; ++j) {
                acc[i][j] += av * bpack[static_cast<std::size_t>(p * 16 + j) %
                                        bpack.size()];  // subscripted: exempt
              }
            }
          }
          for (std::int64_t i = 0; i < 6; ++i) {
            for (std::int64_t j = 0; j < 16; ++j) {
              c[(blk * 6 + i) * 16 + j] += acc[i][j];  // subscripted: exempt
            }
          }
          total_flops += 2.0 * 6 * 16 * static_cast<double>(kc);  // fires
        }
      });
  static_cast<void>(total_flops);
}

// sgemm: single-precision general matrix multiply.
//
// C = alpha * op(A) * op(B) + beta * C, row-major, on the ComputeContext the
// caller passes. Large problems route to register-blocked, panel-packed
// microkernels behind a runtime ISA dispatcher (see tensor/kernels/); small
// problems take a direct scalar path. Which path runs is a function of shape
// only, and the microkernel contract makes results bit-identical across ISA
// paths and thread counts. This is the compute backbone: Conv2d lowers to
// im2col + sgemm (or a fused direct-conv variant of the same kernels),
// Linear is a direct sgemm.
#pragma once

#include <cstdint>

namespace minsgd {

class ComputeContext;

enum class Trans { kNo, kYes };

/// sgemm runs problems with m*n*k at or below this on a direct scalar path
/// and larger ones on the packed microkernels. A function of shape only, so
/// which path runs never depends on the thread count or the dispatched ISA;
/// drivers that must reproduce sgemm's bytes (kernels::conv2d_lowering)
/// test against this same constant.
inline constexpr std::int64_t kSmallGemmFlops = std::int64_t{1} << 18;

/// Row-major sgemm. A is (M x K) if ta==kNo else (K x M); B is (K x N) if
/// tb==kNo else (N x K); C is (M x N); lda/ldb/ldc are the leading
/// dimensions of A/B/C as stored. Row-blocks of C run on `ctx`, each
/// computed serially within itself, so the result is bit-identical for any
/// thread count; inside an outer parallel region the whole call runs inline.
void sgemm(const ComputeContext& ctx, Trans ta, Trans tb, std::int64_t m,
           std::int64_t n, std::int64_t k, float alpha, const float* a,
           std::int64_t lda, const float* b, std::int64_t ldb, float beta,
           float* c, std::int64_t ldc);

}  // namespace minsgd

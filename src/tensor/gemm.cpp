#include "tensor/gemm.hpp"

#include <cstring>

#include "core/check.hpp"
#include "tensor/context.hpp"
#include "tensor/kernels/gemm_packed.hpp"

namespace minsgd {
namespace {

inline float load_a(const float* a, std::int64_t lda, Trans ta, std::int64_t i,
                    std::int64_t p) {
  return ta == Trans::kNo ? a[i * lda + p] : a[p * lda + i];
}

// Direct (non-packing, single-thread) path for small problems, where the
// packed kernel's panel copies and fork-join overheads dominate. DNN training
// at proxy resolutions still hits this for biases, tiny heads and 1x1 convs
// on small planes.
void gemm_small(Trans ta, Trans tb, std::int64_t m, std::int64_t n,
                std::int64_t k, float alpha, const float* a, std::int64_t lda,
                const float* b, std::int64_t ldb, float* c, std::int64_t ldc) {
  if (tb == Trans::kNo) {
    // C[i,:] += alpha * A[i,p] * B[p,:]  (unit-stride axpy rows)
    for (std::int64_t i = 0; i < m; ++i) {
      float* crow = c + i * ldc;
      for (std::int64_t p = 0; p < k; ++p) {
        const float av = alpha * load_a(a, lda, ta, i, p);
        if (av == 0.0f) continue;
        const float* brow = b + p * ldb;
        for (std::int64_t j = 0; j < n; ++j) crow[j] += av * brow[j];
      }
    }
  } else {
    // C[i,j] += alpha * dot(A[i,:], B[j,:])  (unit-stride dot products)
    for (std::int64_t i = 0; i < m; ++i) {
      float* crow = c + i * ldc;
      for (std::int64_t j = 0; j < n; ++j) {
        const float* brow = b + j * ldb;
        float acc = 0.0f;
        if (ta == Trans::kNo) {
          const float* arow = a + i * lda;
          for (std::int64_t p = 0; p < k; ++p) acc += arow[p] * brow[p];
        } else {
          for (std::int64_t p = 0; p < k; ++p) acc += a[p * lda + i] * brow[p];
        }
        crow[j] += alpha * acc;
      }
    }
  }
}

}  // namespace

void sgemm(const ComputeContext& ctx, Trans ta, Trans tb, std::int64_t m,
           std::int64_t n, std::int64_t k, float alpha, const float* a,
           std::int64_t lda, const float* b, std::int64_t ldb, float beta,
           float* c, std::int64_t ldc) {
  MINSGD_CHECK(m >= 0 && n >= 0 && k >= 0, "sgemm: bad dims (m=", m, " n=", n,
               " k=", k, ")");
  if (m == 0 || n == 0) return;
  MINSGD_DCHECK(c != nullptr, "sgemm: null C with m=", m, " n=", n);
  MINSGD_DCHECK(k == 0 || (a != nullptr && b != nullptr),
                "sgemm: null A/B with k=", k);
  MINSGD_DCHECK(lda >= 1 && ldb >= 1 && ldc >= n,
                "sgemm: bad leading dims (lda=", lda, " ldb=", ldb,
                " ldc=", ldc, ", n=", n, ")");

  // Scale C by beta once, up front.
  if (beta == 0.0f) {
    for (std::int64_t i = 0; i < m; ++i) {
      std::memset(c + i * ldc, 0, static_cast<std::size_t>(n) * sizeof(float));
    }
  } else if (beta != 1.0f) {
    for (std::int64_t i = 0; i < m; ++i) {
      float* row = c + i * ldc;
      for (std::int64_t j = 0; j < n; ++j) row[j] *= beta;
    }
  }
  if (k == 0 || alpha == 0.0f) return;

  if (m * n * k <= kSmallGemmFlops) {
    gemm_small(ta, tb, m, n, k, alpha, a, lda, b, ldb, c, ldc);
    return;
  }

  kernels::gemm_packed(ctx, ta, tb, m, n, k, alpha, a, lda, b, ldb, c, ldc);
}

}  // namespace minsgd

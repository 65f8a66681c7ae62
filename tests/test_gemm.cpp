#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <tuple>
#include <vector>

#include "obs/metrics.hpp"
#include "tensor/context.hpp"
#include "tensor/gemm.hpp"
#include "tensor/kernels/dispatch.hpp"
#include "tensor/kernels/microkernel.hpp"
#include "tensor/rng.hpp"

namespace minsgd {
namespace {

// Naive reference: C = alpha*op(A)*op(B) + beta*C, packed row-major.
void ref_gemm(Trans ta, Trans tb, std::int64_t m, std::int64_t n,
              std::int64_t k, float alpha, const std::vector<float>& a,
              const std::vector<float>& b, float beta, std::vector<float>& c) {
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::int64_t p = 0; p < k; ++p) {
        const float av = ta == Trans::kNo
                             ? a[static_cast<std::size_t>(i * k + p)]
                             : a[static_cast<std::size_t>(p * m + i)];
        const float bv = tb == Trans::kNo
                             ? b[static_cast<std::size_t>(p * n + j)]
                             : b[static_cast<std::size_t>(j * k + p)];
        acc += static_cast<double>(av) * bv;
      }
      auto& cv = c[static_cast<std::size_t>(i * n + j)];
      cv = alpha * static_cast<float>(acc) + beta * cv;
    }
  }
}

struct GemmCase {
  std::int64_t m, n, k;
  Trans ta, tb;
  float alpha, beta;
};

class GemmVsReference : public ::testing::TestWithParam<GemmCase> {};

TEST_P(GemmVsReference, Matches) {
  const auto& p = GetParam();
  Rng rng(static_cast<std::uint64_t>(p.m * 131 + p.n * 17 + p.k));
  std::vector<float> a(static_cast<std::size_t>(p.m * p.k));
  std::vector<float> b(static_cast<std::size_t>(p.k * p.n));
  std::vector<float> c(static_cast<std::size_t>(p.m * p.n));
  rng.fill_normal(a, 0.0f, 1.0f);
  rng.fill_normal(b, 0.0f, 1.0f);
  rng.fill_normal(c, 0.0f, 1.0f);
  std::vector<float> c_ref = c;

  const ComputeContext ctx;
  const std::int64_t lda = (p.ta == Trans::kNo) ? p.k : p.m;
  const std::int64_t ldb = (p.tb == Trans::kNo) ? p.n : p.k;
  sgemm(ctx, p.ta, p.tb, p.m, p.n, p.k, p.alpha, a.data(), lda, b.data(), ldb,
        p.beta, c.data(), p.n);
  ref_gemm(p.ta, p.tb, p.m, p.n, p.k, p.alpha, a, b, p.beta, c_ref);

  for (std::size_t i = 0; i < c.size(); ++i) {
    EXPECT_NEAR(c[i], c_ref[i], 1e-3 * (1.0 + std::abs(c_ref[i])))
        << "at " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmVsReference,
    ::testing::Values(
        GemmCase{1, 1, 1, Trans::kNo, Trans::kNo, 1.0f, 0.0f},
        GemmCase{3, 5, 7, Trans::kNo, Trans::kNo, 1.0f, 0.0f},
        GemmCase{3, 5, 7, Trans::kYes, Trans::kNo, 1.0f, 0.0f},
        GemmCase{3, 5, 7, Trans::kNo, Trans::kYes, 1.0f, 0.0f},
        GemmCase{3, 5, 7, Trans::kYes, Trans::kYes, 1.0f, 0.0f},
        GemmCase{16, 16, 16, Trans::kNo, Trans::kNo, 2.0f, 0.5f},
        GemmCase{64, 64, 64, Trans::kNo, Trans::kNo, 1.0f, 1.0f},
        GemmCase{65, 33, 257, Trans::kNo, Trans::kNo, 1.0f, 0.0f},  // off-block
        GemmCase{128, 513, 300, Trans::kNo, Trans::kNo, 1.0f, 0.0f},
        GemmCase{100, 1, 50, Trans::kNo, Trans::kNo, 1.0f, 0.0f},
        GemmCase{1, 100, 50, Trans::kYes, Trans::kYes, -1.0f, 2.0f},
        GemmCase{70, 40, 1, Trans::kNo, Trans::kNo, 1.0f, 0.0f}));

TEST(Gemm, ZeroAlphaOnlyScalesC) {
  const ComputeContext ctx;
  std::vector<float> a{1, 2, 3, 4}, b{5, 6, 7, 8}, c{1, 1, 1, 1};
  sgemm(ctx, Trans::kNo, Trans::kNo, 2, 2, 2, 0.0f, a.data(), 2, b.data(), 2,
        3.0f, c.data(), 2);
  for (float v : c) EXPECT_EQ(v, 3.0f);
}

TEST(Gemm, BetaZeroIgnoresGarbageC) {
  std::vector<float> a{1, 0, 0, 1}, b{1, 2, 3, 4};
  std::vector<float> c{std::numeric_limits<float>::quiet_NaN(), 0, 0, 0};
  const ComputeContext ctx;
  sgemm(ctx, Trans::kNo, Trans::kNo, 2, 2, 2, 1.0f, a.data(), 2, b.data(), 2,
        0.0f, c.data(), 2);
  EXPECT_EQ(c[0], 1.0f);
  EXPECT_EQ(c[1], 2.0f);
  EXPECT_EQ(c[2], 3.0f);
  EXPECT_EQ(c[3], 4.0f);
}

TEST(Gemm, EmptyDimsNoOp) {
  std::vector<float> c{7.0f};
  const ComputeContext ctx;
  sgemm(ctx, Trans::kNo, Trans::kNo, 0, 0, 0, 1.0f, nullptr, 0, nullptr, 0,
        0.0f, c.data(), 0);
  EXPECT_EQ(c[0], 7.0f);
}

TEST(GemmDeath, NegativeDimsAbort) {
  const ComputeContext ctx;
  EXPECT_DEATH(sgemm(ctx, Trans::kNo, Trans::kNo, -1, 2, 2, 1.0f, nullptr, 2,
                     nullptr, 2, 0.0f, nullptr, 2),
               "sgemm: bad dims \\(m=-1 n=2 k=2\\)");
}

TEST(Gemm, StridedLeadingDimensions) {
  // A is a 2x2 view inside a 2x4 buffer (lda=4); B packed; C has ldc=3.
  std::vector<float> a{1, 2, 9, 9, 3, 4, 9, 9};
  std::vector<float> b{1, 0, 0, 1};
  std::vector<float> c(6, 0.0f);
  const ComputeContext ctx;
  sgemm(ctx, Trans::kNo, Trans::kNo, 2, 2, 2, 1.0f, a.data(), 4, b.data(), 2,
        0.0f, c.data(), 3);
  EXPECT_EQ(c[0], 1.0f);
  EXPECT_EQ(c[1], 2.0f);
  EXPECT_EQ(c[3], 3.0f);
  EXPECT_EQ(c[4], 4.0f);
}

// -- kernel oracle ----------------------------------------------------------
//
// The portable microkernel is the semantic reference for every dispatched
// ISA path: identical packed panels, identical mul-then-add sequence per
// output element, same k order, no FMA. These tests pin each path in turn
// and compare outputs byte for byte (memcmp, not EXPECT_EQ — the contract
// is bitwise, and -0.0 == 0.0 would hide a sign flip).

bool same_bits(const std::vector<float>& x, const std::vector<float>& y) {
  if (x.size() != y.size()) return false;
  if (x.empty()) return true;
  return std::memcmp(x.data(), y.data(), x.size() * sizeof(float)) == 0;
}

std::vector<kernels::Isa> supported_isas() {
  std::vector<kernels::Isa> v;
  for (kernels::Isa isa : kernels::kAllIsas) {
    if (kernels::supported(isa)) v.push_back(isa);
  }
  return v;
}

/// Pins the dispatcher for one scope; restores automatic selection on exit.
struct ForcedIsa {
  explicit ForcedIsa(kernels::Isa isa) { kernels::force(isa); }
  ~ForcedIsa() { kernels::clear_force(); }
};

std::vector<float> run_sgemm(const ComputeContext& ctx, Trans ta, Trans tb,
                             std::int64_t m, std::int64_t n, std::int64_t k,
                             float alpha, const std::vector<float>& a,
                             const std::vector<float>& b, float beta,
                             const std::vector<float>& c0) {
  std::vector<float> c = c0;
  const std::int64_t lda = std::max<std::int64_t>(1, ta == Trans::kNo ? k : m);
  const std::int64_t ldb = std::max<std::int64_t>(1, tb == Trans::kNo ? n : k);
  sgemm(ctx, ta, tb, m, n, k, alpha, a.data(), lda, b.data(), ldb, beta,
        c.data(), std::max<std::int64_t>(1, n));
  return c;
}

// Randomized property trials plus the classic edge shapes: every supported
// ISA path, and every thread count, must reproduce the forced-portable
// single-thread result bit for bit. Shapes span both the small-GEMM path
// and the packed path (which is where the ISA actually matters), tile
// remainders (m % 6, n % 16, k % 256 != 0), degenerate M=1/N=1/K=1, and
// zero-size dims.
TEST(KernelOracle, RandomTrialsBitIdenticalAcrossIsaAndThreads) {
  const auto isas = supported_isas();
  ComputeContext ctx1(1), ctx4(4);
  Rng rng(20260808);

  struct Dims {
    std::int64_t m, n, k;
  };
  std::vector<Dims> trials = {
      {1, 1, 1},    {1, 320, 1},  {6, 16, 64},    {96, 512, 256},
      {97, 257, 131}, {200, 1, 300}, {1, 300, 200}, {7, 17, 513},
      {0, 8, 8},    {8, 0, 8},    {8, 8, 0},      {64, 64, 64},
  };
  for (int t = 0; t < 12; ++t) {
    trials.push_back({1 + static_cast<std::int64_t>(rng.uniform_int(160)),
                      1 + static_cast<std::int64_t>(rng.uniform_int(320)),
                      1 + static_cast<std::int64_t>(rng.uniform_int(320))});
  }

  const float alphas[] = {1.0f, -0.5f};
  const float betas[] = {0.0f, 1.0f, 0.25f};
  for (const auto& d : trials) {
    const Trans ta = rng.uniform_int(2) ? Trans::kYes : Trans::kNo;
    const Trans tb = rng.uniform_int(2) ? Trans::kYes : Trans::kNo;
    const float alpha = alphas[rng.uniform_int(2)];
    const float beta = betas[rng.uniform_int(3)];
    std::vector<float> a(static_cast<std::size_t>(std::max<std::int64_t>(
        1, d.m * d.k)));
    std::vector<float> b(static_cast<std::size_t>(std::max<std::int64_t>(
        1, d.k * d.n)));
    std::vector<float> c0(static_cast<std::size_t>(d.m * d.n));
    rng.fill_normal(a, 0.0f, 1.0f);
    rng.fill_normal(b, 0.0f, 1.0f);
    rng.fill_normal(c0, 0.0f, 1.0f);

    std::vector<float> base;
    {
      ForcedIsa pin(kernels::Isa::kPortable);
      base = run_sgemm(ctx1, ta, tb, d.m, d.n, d.k, alpha, a, b, beta, c0);
    }
    for (kernels::Isa isa : isas) {
      ForcedIsa pin(isa);
      const auto got1 =
          run_sgemm(ctx1, ta, tb, d.m, d.n, d.k, alpha, a, b, beta, c0);
      const auto got4 =
          run_sgemm(ctx4, ta, tb, d.m, d.n, d.k, alpha, a, b, beta, c0);
      EXPECT_TRUE(same_bits(base, got1))
          << kernels::to_string(isa) << " t=1 differs at m=" << d.m
          << " n=" << d.n << " k=" << d.k;
      EXPECT_TRUE(same_bits(base, got4))
          << kernels::to_string(isa) << " t=4 differs at m=" << d.m
          << " n=" << d.n << " k=" << d.k;
    }
  }
}

// The dispatch matrix: each compiled-in path, when forced, produces the
// same bytes AND reports itself through the "kernels.isa" gauge, so a run's
// metrics snapshot records which kernels actually executed.
TEST(KernelIsaMatrix, EachForcedPathMatchesAndReportsGauge) {
  ComputeContext ctx(4);
  const std::int64_t m = 96, n = 160, k = 128;  // packed path (> 2^18 flops)
  Rng rng(42);
  std::vector<float> a(static_cast<std::size_t>(m * k));
  std::vector<float> b(static_cast<std::size_t>(k * n));
  std::vector<float> c0(static_cast<std::size_t>(m * n));
  rng.fill_normal(a, 0.0f, 1.0f);
  rng.fill_normal(b, 0.0f, 1.0f);
  rng.fill_normal(c0, 0.0f, 1.0f);

  std::vector<std::vector<float>> outs;
  for (kernels::Isa isa : supported_isas()) {
    ForcedIsa pin(isa);
    outs.push_back(run_sgemm(ctx, Trans::kNo, Trans::kNo, m, n, k, 1.0f, a, b,
                             1.0f, c0));
    EXPECT_EQ(obs::metrics().gauge("kernels.isa").value(),
              static_cast<double>(static_cast<int>(isa)))
        << "gauge does not report " << kernels::to_string(isa);
  }
  for (std::size_t i = 1; i < outs.size(); ++i) {
    EXPECT_TRUE(same_bits(outs[0], outs[i]))
        << "ISA path " << kernels::to_string(supported_isas()[i])
        << " differs from portable";
  }
}

TEST(KernelIsaMatrix, PackedPathThreadInvariantPerIsa) {
  // Off-tile shape spanning two row-blocks, so chunks really run in
  // parallel; {1,2,4,8} must agree bytewise on every path.
  const std::int64_t m = 97, n = 513, k = 200;
  Rng rng(7);
  std::vector<float> a(static_cast<std::size_t>(m * k));
  std::vector<float> b(static_cast<std::size_t>(k * n));
  std::vector<float> c0(static_cast<std::size_t>(m * n));
  rng.fill_normal(a, 0.0f, 1.0f);
  rng.fill_normal(b, 0.0f, 1.0f);
  rng.fill_normal(c0, 0.0f, 1.0f);

  for (kernels::Isa isa : supported_isas()) {
    ForcedIsa pin(isa);
    ComputeContext one(1);
    const auto base =
        run_sgemm(one, Trans::kNo, Trans::kNo, m, n, k, 1.0f, a, b, 0.0f, c0);
    for (std::size_t t : {2u, 4u, 8u}) {
      ComputeContext ctx(t);
      const auto got = run_sgemm(ctx, Trans::kNo, Trans::kNo, m, n, k, 1.0f,
                                 a, b, 0.0f, c0);
      EXPECT_TRUE(same_bits(base, got))
          << kernels::to_string(isa) << " differs at t=" << t;
    }
  }
}

TEST(KernelIsaDispatch, ParseIsa) {
  kernels::Isa isa = kernels::Isa::kAvx2;
  EXPECT_TRUE(kernels::parse_isa("portable", &isa));
  EXPECT_EQ(isa, kernels::Isa::kPortable);
  EXPECT_TRUE(kernels::parse_isa("avx2", &isa));
  EXPECT_EQ(isa, kernels::Isa::kAvx2);
  EXPECT_TRUE(kernels::parse_isa("neon", &isa));
  EXPECT_EQ(isa, kernels::Isa::kNeon);
  EXPECT_TRUE(kernels::parse_isa("auto", &isa));
  EXPECT_EQ(isa, kernels::best_supported());
  EXPECT_FALSE(kernels::parse_isa("avx512f", &isa));
  EXPECT_FALSE(kernels::parse_isa("AVX2", &isa));
  EXPECT_FALSE(kernels::parse_isa("", &isa));
  EXPECT_FALSE(kernels::parse_isa(nullptr, &isa));
  EXPECT_FALSE(kernels::parse_isa("portable", nullptr));
  for (kernels::Isa each : kernels::kAllIsas) {
    ASSERT_TRUE(kernels::parse_isa(kernels::to_string(each), &isa));
    EXPECT_EQ(isa, each);
  }
}

// The widest supported arm is the default: AVX-512 wherever the CPU has
// avx512f, ahead of AVX2.
TEST(KernelIsaDispatch, BestSupportedIsSupported) {
  EXPECT_TRUE(kernels::supported(kernels::best_supported()));
  EXPECT_TRUE(kernels::supported(kernels::Isa::kPortable));
  if (kernels::supported(kernels::Isa::kAvx512)) {
    EXPECT_TRUE(kernels::supported(kernels::Isa::kAvx2));
    EXPECT_EQ(kernels::best_supported(), kernels::Isa::kAvx512);
  } else if (kernels::supported(kernels::Isa::kAvx2)) {
    EXPECT_EQ(kernels::best_supported(), kernels::Isa::kAvx2);
  }
}

// Edge tiles of every size against the portable reference, calling the
// microkernels directly: mr in [1, 6] x nr in [1, 16] (the AVX-512 arm
// stores them through a lane mask, AVX2/NEON through a spill buffer), with
// C rows strided past the tile so a store outside the mr x nr block shows
// up as a changed guard element.
TEST(KernelOracle, EveryEdgeTileBitIdenticalAcrossIsa) {
  constexpr std::int64_t kc = 37, ldc = 21;
  Rng rng(611);
  std::vector<float> ap(static_cast<std::size_t>(kc * 6));
  std::vector<float> bp(static_cast<std::size_t>(kc * 16));
  std::vector<float> c0(static_cast<std::size_t>(6 * ldc));
  rng.fill_normal(ap, 0.0f, 1.0f);
  rng.fill_normal(bp, 0.0f, 1.0f);
  rng.fill_normal(c0, 0.0f, 1.0f);
  for (std::int64_t mr = 1; mr <= 6; ++mr) {
    for (std::int64_t nr = 1; nr <= 16; ++nr) {
      std::vector<float> base = c0;
      kernels::microkernel_portable(kc, ap.data(), bp.data(), base.data(), ldc,
                                    mr, nr);
      for (kernels::Isa isa : supported_isas()) {
        std::vector<float> got = c0;
        kernels::microkernel_for(isa)(kc, ap.data(), bp.data(), got.data(),
                                      ldc, mr, nr);
        EXPECT_TRUE(same_bits(base, got))
            << kernels::to_string(isa) << " differs at mr=" << mr
            << " nr=" << nr;
      }
    }
  }
}

TEST(KernelIsaDispatch, DefaultSelectionIsBestSupported) {
  if (std::getenv("MINSGD_KERNEL_ISA") != nullptr) {
    GTEST_SKIP() << "MINSGD_KERNEL_ISA overrides automatic selection";
  }
  kernels::clear_force();
  EXPECT_EQ(kernels::active(), kernels::best_supported());
}

// check_all.sh reruns the oracle suite with MINSGD_KERNEL_ISA=portable under
// the sanitizers; this test only bites in those runs and asserts the
// environment override actually reached the dispatcher.
TEST(KernelIsaDispatch, EnvOverrideHonored) {
  const char* env = std::getenv("MINSGD_KERNEL_ISA");
  if (env == nullptr || env[0] == '\0') {
    GTEST_SKIP() << "MINSGD_KERNEL_ISA not set";
  }
  kernels::Isa want = kernels::Isa::kPortable;
  ASSERT_TRUE(kernels::parse_isa(env, &want));
  kernels::clear_force();
  EXPECT_EQ(kernels::active(), want);
}

TEST(KernelIsaDispatch, ForceUnsupportedAborts) {
#if defined(__aarch64__)
  EXPECT_DEATH(kernels::force(kernels::Isa::kAvx2), "not supported");
#else
  EXPECT_DEATH(kernels::force(kernels::Isa::kNeon), "not supported");
#endif
}

}  // namespace
}  // namespace minsgd

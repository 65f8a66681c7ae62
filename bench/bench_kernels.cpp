// Kernel microbenchmarks: the compute and communication primitives
// everything else is built from.
//
// Runs in two stages: first a fixed scalar-vs-SIMD comparison pass that
// writes bench_results/kernels.json (GFLOP/s per supported microkernel arm
// and for the dispatched default, speedup over the pre-microkernel scalar
// baseline, bitwise checksums across ISA arms, thread counts and conv
// lowerings, forward and backward, the non-GEMM layer rows: BN, fused
// BN+ReLU, ReLU and max-pool at ResNet-50 shapes, and the reduction rows:
// the fused LARS norm pass, LARS steps, and the AlexNet proxy's max-pool
// and conv bias gradient, each with effective GB/s and a checksum across
// thread counts), then the google-benchmark suite for ad-hoc exploration.
// Exits non-zero if any checksum differs.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <initializer_list>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "comm/cluster.hpp"
#include "conv_reference.hpp"
#include "nn/activation.hpp"
#include "nn/conv.hpp"
#include "nn/models.hpp"
#include "nn/norm.hpp"
#include "nn/pool.hpp"
#include "optim/lars.hpp"
#include "tensor/context.hpp"
#include "tensor/gemm.hpp"
#include "tensor/kernels/dispatch.hpp"
#include "tensor/kernels/reduce.hpp"
#include "tensor/ops.hpp"
#include "tensor/rng.hpp"

using namespace minsgd;

namespace {

void BM_Sgemm(benchmark::State& state) {
  const auto n = state.range(0);
  Rng rng(1);
  std::vector<float> a(static_cast<std::size_t>(n * n));
  std::vector<float> b(static_cast<std::size_t>(n * n));
  std::vector<float> c(static_cast<std::size_t>(n * n));
  rng.fill_normal(a, 0.0f, 1.0f);
  rng.fill_normal(b, 0.0f, 1.0f);
  const ComputeContext ctx;
  for (auto _ : state) {
    sgemm(ctx, Trans::kNo, Trans::kNo, n, n, n, 1.0f, a.data(), n, b.data(), n,
          0.0f, c.data(), n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_Sgemm)->Arg(64)->Arg(128)->Arg(256)->Arg(512);

void BM_SgemmTransB(benchmark::State& state) {
  const auto n = state.range(0);
  Rng rng(2);
  std::vector<float> a(static_cast<std::size_t>(n * n));
  std::vector<float> b(static_cast<std::size_t>(n * n));
  std::vector<float> c(static_cast<std::size_t>(n * n));
  rng.fill_normal(a, 0.0f, 1.0f);
  rng.fill_normal(b, 0.0f, 1.0f);
  const ComputeContext ctx;
  for (auto _ : state) {
    sgemm(ctx, Trans::kNo, Trans::kYes, n, n, n, 1.0f, a.data(), n, b.data(),
          n, 0.0f, c.data(), n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_SgemmTransB)->Arg(128)->Arg(256);

void BM_ConvForward(benchmark::State& state) {
  const ComputeContext ctx;
  const auto channels = state.range(0);
  nn::Conv2d conv(channels, channels, 3, 1, 1);
  Rng rng(3);
  conv.init(rng);
  Tensor x({4, channels, 16, 16});
  rng.fill_normal(x.span(), 0.0f, 1.0f);
  Tensor y;
  for (auto _ : state) {
    conv.forward(x, y, true, ctx);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * 4 * conv.flops(x.shape()));
}
BENCHMARK(BM_ConvForward)->Arg(16)->Arg(32)->Arg(64);

void BM_ConvBackward(benchmark::State& state) {
  const ComputeContext ctx;
  const auto channels = state.range(0);
  nn::Conv2d conv(channels, channels, 3, 1, 1);
  Rng rng(4);
  conv.init(rng);
  Tensor x({4, channels, 16, 16});
  rng.fill_normal(x.span(), 0.0f, 1.0f);
  Tensor y, dy, dx;
  conv.forward(x, y, true, ctx);
  dy.resize(y.shape());
  rng.fill_normal(dy.span(), 0.0f, 1.0f);
  for (auto _ : state) {
    conv.backward(x, y, dy, dx, ctx);
    benchmark::DoNotOptimize(dx.data());
  }
}
BENCHMARK(BM_ConvBackward)->Arg(16)->Arg(32);

void BM_BatchNormForward(benchmark::State& state) {
  const ComputeContext ctx;
  const auto channels = state.range(0);
  nn::BatchNorm2d bn(channels);
  Rng rng(5);
  Tensor x({8, channels, 16, 16});
  rng.fill_normal(x.span(), 0.0f, 1.0f);
  Tensor y;
  for (auto _ : state) {
    bn.forward(x, y, true, ctx);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * x.numel());
}
BENCHMARK(BM_BatchNormForward)->Arg(16)->Arg(64);

void BM_L2Norm(benchmark::State& state) {
  std::vector<float> v(static_cast<std::size_t>(state.range(0)));
  Rng rng(6);
  rng.fill_normal(v, 0.0f, 1.0f);
  for (auto _ : state) {
    benchmark::DoNotOptimize(l2_norm(v));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_L2Norm)->Arg(1 << 12)->Arg(1 << 20);

void BM_Allreduce(benchmark::State& state) {
  const int world = static_cast<int>(state.range(0));
  const auto algo = static_cast<comm::AllreduceAlgo>(state.range(1));
  const std::int64_t words = 1 << 16;
  comm::SimCluster cluster(world);
  for (auto _ : state) {
    cluster.run([&](comm::Communicator& c) {
      std::vector<float> data(static_cast<std::size_t>(words), 1.0f);
      c.allreduce_sum(data, algo);
      benchmark::DoNotOptimize(data.data());
    });
  }
  state.SetBytesProcessed(state.iterations() * words * 4 * world);
  state.SetLabel(comm::to_string(algo));
}
BENCHMARK(BM_Allreduce)
    ->Args({4, 0})
    ->Args({4, 1})
    ->Args({4, 2})
    ->Args({4, 3})
    ->Args({8, 1})
    ->Args({8, 2});

// -- scalar-vs-SIMD summary pass -------------------------------------------

// The pre-microkernel blocked sgemm (cache-blocked axpy inner loop, no
// packing into tile layout), kept verbatim as the old-path baseline. Two
// compilations of the same inner loop give two baselines: `autovec` is what
// the repo actually shipped before the microkernels (the compiler SIMD-izes
// the axpy), `scalar` pins auto-vectorization off so it measures true
// one-lane compute — that is the denominator of the headline scalar-vs-SIMD
// speedup in kernels.json.
constexpr std::int64_t kBaseMC = 64, kBaseKC = 256, kBaseNC = 512;

template <typename MicroBlock>
void baseline_sgemm_impl(std::int64_t n, const float* a, const float* b,
                         float* c, const MicroBlock& micro_block) {
  std::memset(c, 0, static_cast<std::size_t>(n * n) * sizeof(float));
  std::vector<float> apack(static_cast<std::size_t>(kBaseMC * kBaseKC));
  std::vector<float> bpack(static_cast<std::size_t>(kBaseKC * kBaseNC));
  for (std::int64_t i0 = 0; i0 < n; i0 += kBaseMC) {
    const std::int64_t mc = std::min(kBaseMC, n - i0);
    for (std::int64_t p0 = 0; p0 < n; p0 += kBaseKC) {
      const std::int64_t kc = std::min(kBaseKC, n - p0);
      for (std::int64_t i = 0; i < mc; ++i) {
        for (std::int64_t p = 0; p < kc; ++p) {
          apack[static_cast<std::size_t>(i * kc + p)] = a[(i0 + i) * n + p0 + p];
        }
      }
      for (std::int64_t j0 = 0; j0 < n; j0 += kBaseNC) {
        const std::int64_t nc = std::min(kBaseNC, n - j0);
        for (std::int64_t p = 0; p < kc; ++p) {
          for (std::int64_t j = 0; j < nc; ++j) {
            bpack[static_cast<std::size_t>(p * nc + j)] = b[(p0 + p) * n + j0 + j];
          }
        }
        micro_block(mc, nc, kc, apack.data(), bpack.data(), c + i0 * n + j0,
                    n);
      }
    }
  }
}

void micro_block_autovec(std::int64_t mc, std::int64_t nc, std::int64_t kc,
                         const float* ap, const float* bp, float* c,
                         std::int64_t ldc) {
  for (std::int64_t i = 0; i < mc; ++i) {
    float* crow = c + i * ldc;
    const float* arow = ap + i * kc;
    for (std::int64_t p = 0; p < kc; ++p) {
      const float aval = arow[p];
      const float* brow = bp + p * nc;
      for (std::int64_t j = 0; j < nc; ++j) crow[j] += aval * brow[j];
    }
  }
}

__attribute__((optimize("no-tree-vectorize", "no-tree-slp-vectorize"))) void
micro_block_scalar(std::int64_t mc, std::int64_t nc, std::int64_t kc,
                   const float* ap, const float* bp, float* c,
                   std::int64_t ldc) {
  for (std::int64_t i = 0; i < mc; ++i) {
    float* crow = c + i * ldc;
    const float* arow = ap + i * kc;
    for (std::int64_t p = 0; p < kc; ++p) {
      const float aval = arow[p];
      const float* brow = bp + p * nc;
      for (std::int64_t j = 0; j < nc; ++j) crow[j] += aval * brow[j];
    }
  }
}

void baseline_sgemm_autovec(std::int64_t n, const float* a, const float* b,
                            float* c) {
  baseline_sgemm_impl(n, a, b, c, micro_block_autovec);
}

void baseline_sgemm_scalar(std::int64_t n, const float* a, const float* b,
                           float* c) {
  baseline_sgemm_impl(n, a, b, c, micro_block_scalar);
}

std::uint64_t bits_checksum(const std::vector<float>& v) {
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a over the bit patterns
  for (const float f : v) {
    std::uint32_t u = 0;
    std::memcpy(&u, &f, sizeof(u));
    h ^= u;
    h *= 1099511628211ull;
  }
  return h;
}

/// Best-of-`reps` wall seconds for one invocation of `fn`.
template <typename Fn>
double time_best(int reps, const Fn& fn) {
  double best = 1e30;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const std::chrono::duration<double> dt =
        std::chrono::steady_clock::now() - t0;
    best = std::min(best, dt.count());
  }
  return best;
}

/// One row of a threads-checked pass: times `run(ctx)` at one thread (best
/// of 5), reports effective bandwidth over `bytes`, and compares the
/// checksum of `check(ctx)` (the pass from a fixed start state, returning
/// the bytes to compare) at threads {2, 3, 4} with the single-thread one.
/// Returns false on a mismatch.
template <typename Run, typename Check>
bool threads_row(bench::JsonSummary& summary, const std::string& key,
                 double bytes, const Run& run, const Check& check) {
  const ComputeContext one(1);
  const double t = time_best(5, [&] { run(one); });
  const std::uint64_t base = bits_checksum(check(one));
  bool match = true;
  for (const std::size_t threads : {2u, 3u, 4u}) {
    const ComputeContext ctx(threads);
    match = match && bits_checksum(check(ctx)) == base;
  }
  const double gbs = bytes / t * 1e-9;
  std::printf("%-22s %10.3f %10.2f  %s\n", key.c_str(), t * 1e3, gbs,
              match ? "match" : "CHECKSUM MISMATCH");
  summary.add(key + "_ms", t * 1e3);
  summary.add(key + "_gbs", gbs);
  summary.add(key + "_checksum_match", static_cast<std::int64_t>(match));
  return match;
}

/// The non-GEMM passes of the ResNet-50 stem and first stage at batch 2
/// ([2, 64, 112, 112]): BN forward/backward, BN with its fused ReLU, ReLU
/// and the 3/s2/p1 max-pool. Each row times the single-thread pass (best of
/// 5) and reports effective bandwidth over the bytes every tensor it touches
/// moves once (the floor a memory-bound pass can reach), then reruns the
/// pass at threads {2, 3, 4} and compares the output checksum (y, or dx plus
/// the parameter gradients) with the single-thread one. Returns false on any
/// mismatch.
bool run_non_gemm_rows(bench::JsonSummary& summary) {
  const ComputeContext ctx;
  const Shape shape{2, 64, 112, 112};
  const double n = static_cast<double>(shape.numel());
  Rng rng(21);
  Tensor x(shape), dy(shape);
  rng.fill_normal(x.span(), 0.0f, 1.0f);
  rng.fill_normal(dy.span(), 0.0f, 1.0f);
  bool all_match = true;

  bench::section("non-GEMM layers at [2,64,112,112], single thread, best of 5");
  std::printf("%-22s %10s %10s  %s\n", "pass", "ms", "GB/s",
              "checksum (threads 1-4)");
  // `run(ctx)` executes the pass once; `out()` returns the bytes to check.
  const auto row = [&](const std::string& key, double bytes, const auto& run,
                       const auto& out) {
    all_match = threads_row(summary, key, bytes, run,
                            [&](const ComputeContext& ctx) {
                              run(ctx);
                              return out();
                            }) &&
                all_match;
  };
  const auto floats = [](const Tensor& t) {
    return std::vector<float>(t.span().begin(), t.span().end());
  };

  for (const bool fused : {false, true}) {
    nn::BatchNorm2d bn(64, 1e-5f, 0.9f, fused);
    Rng init(3);
    bn.init(init);
    const std::string key = fused ? "bn_relu64" : "bn64";
    Tensor y, dx;
    // Forward: x in, y and the cached xhat out. The running statistics
    // move on every call; the checksum covers y only.
    row(key + "_fwd", 3 * 4 * n,
        [&](const ComputeContext& ctx) { bn.forward(x, y, true, ctx); },
        [&] { return floats(y); });
    bn.forward(x, y, true, ctx);
    // Backward: dy and xhat in (and y, for the fused mask), dx out.
    row(key + "_bwd", (fused ? 4 : 3) * 4 * n,
        [&](const ComputeContext& ctx) {
          for (auto& p : bn.params()) p.grad->zero();
          bn.backward(x, y, dy, dx, ctx);
        },
        [&] {
          std::vector<float> v = floats(dx);
          for (auto& p : bn.params()) {
            v.insert(v.end(), p.grad->span().begin(), p.grad->span().end());
          }
          return v;
        });
  }

  nn::ReLU relu;
  Tensor ry, rdx;
  row("relu_fwd", 2 * 4 * n,
      [&](const ComputeContext& ctx) { relu.forward(x, ry, false, ctx); },
      [&] { return floats(ry); });
  row("relu_bwd", 3 * 4 * n,
      [&](const ComputeContext& ctx) { relu.backward(x, ry, dy, rdx, ctx); },
      [&] { return floats(rdx); });

  // Max-pool forward: x in, y and one 4-byte argmax per output out.
  nn::MaxPool2d pool(3, 2, 1);
  Tensor py;
  row("maxpool3_s2_fwd", 4 * n + 2 * 4 * (n / 4),
      [&](const ComputeContext& ctx) { pool.forward(x, py, true, ctx); },
      [&] { return floats(py); });
  return all_match;
}

/// Per-chunk serial sums of squares of x and y, combined in chunk order:
/// the one-chain-per-chunk reduction the lane-interleaved pass replaces.
std::pair<double, double> serial_sum_squares(std::span<const float> x,
                                             std::span<const float> y) {
  const auto n = static_cast<std::int64_t>(x.size());
  const std::int64_t chunks = ComputeContext::chunk_count(n, 16384);
  double sx = 0.0, sy = 0.0;
  for (std::int64_t c = 0; c < chunks; ++c) {
    const auto [lo, hi] = ComputeContext::chunk_bounds(n, chunks, c);
    double px = 0.0;
    for (std::int64_t i = lo; i < hi; ++i) {
      px += static_cast<double>(x[i]) * static_cast<double>(x[i]);
    }
    double py = 0.0;
    for (std::int64_t i = lo; i < hi; ++i) {
      py += static_cast<double>(y[i]) * static_cast<double>(y[i]);
    }
    sx += px;
    sy += py;
  }
  return {sx, sy};
}

/// The bit patterns of doubles, as floats for bits_checksum.
std::vector<float> double_bits(std::initializer_list<double> values) {
  std::vector<float> out(2 * values.size());
  std::memcpy(out.data(), std::data(values), values.size() * sizeof(double));
  return out;
}

/// The LARS-path reductions and the AlexNet proxy's other latency-bound
/// passes: the fused ||w||^2/||g||^2 pass on a 2.36 M-float tensor (the
/// largest ResNet-50 weight) against the per-chunk serial pair, one LARS
/// step over the ResNet-50 and AlexNet-proxy parameter lists, max-pool 2/s2
/// and the conv bias gradient at [4,128,16,16]. Same row format as
/// run_non_gemm_rows. Returns false on any mismatch.
bool run_reduction_rows(bench::JsonSummary& summary) {
  bool all_match = true;
  bench::section("LARS reductions and AlexNet-proxy passes, single thread, "
                 "best of 5");
  std::printf("%-22s %10s %10s  %s\n", "pass", "ms", "GB/s",
              "checksum (threads 1-4)");

  {
    const std::int64_t n = 2359296;
    Rng rng(31);
    std::vector<float> w(n), g(n);
    rng.fill_normal(w, 0.0f, 0.05f);
    rng.fill_normal(g, 0.0f, 0.001f);
    std::pair<double, double> fused;
    const auto pass = [&](const ComputeContext& ctx) {
      fused = sum_squares(ctx, w, g);
    };
    all_match = threads_row(summary, "sumsq2_2359296", 8.0 * n, pass,
                            [&](const ComputeContext& ctx) {
                              pass(ctx);
                              return double_bits({fused.first, fused.second});
                            }) &&
                all_match;
    std::pair<double, double> serial;
    const double t_serial =
        time_best(5, [&] { serial = serial_sum_squares(w, g); });
    const ComputeContext one(1);
    const double t_fused = time_best(5, [&] { pass(one); });
    const bool same = serial == fused;
    all_match = all_match && same;
    std::printf("%-22s %10.3f %10.2f  %s, fused pass %.2fx\n",
                "sumsq2_serial_pair", t_serial * 1e3, 8.0 * n / t_serial * 1e-9,
                same ? "same bits" : "CHECKSUM MISMATCH", t_serial / t_fused);
    summary.add("sumsq2_serial_pair_ms", t_serial * 1e3);
    summary.add("sumsq2_speedup", t_serial / t_fused);
    summary.add("sumsq2_serial_checksum_match",
                static_cast<std::int64_t>(same));
  }

  for (const bool big : {true, false}) {
    auto net = big ? nn::resnet(50, 16)
                   : nn::tiny_alexnet(16, 32, nn::AlexNetNorm::kBN, 64);
    Rng rng(41);
    net->init(rng);
    auto params = net->params();
    double bytes = 0.0;
    std::vector<std::vector<float>> w0;
    for (auto& p : params) {
      rng.fill_normal(p.grad->span(), 0.0f, 0.01f);
      w0.emplace_back(p.value->span().begin(), p.value->span().end());
      // Norm pass (adapted tensors) reads w and g; the update reads w, g
      // and v and writes w and v.
      bytes += (p.decay ? 28.0 : 20.0) * static_cast<double>(p.value->numel());
    }
    const auto restore = [&] {
      for (std::size_t i = 0; i < params.size(); ++i) {
        std::copy(w0[i].begin(), w0[i].end(), params[i].value->data());
      }
    };
    optim::Lars timed;
    timed.step(params, 0.1, ComputeContext(1));  // velocity
    all_match =
        threads_row(summary, big ? "lars_step_resnet50" : "lars_step_alexnet",
                    bytes,
                    [&](const ComputeContext& ctx) {
                      timed.step(params, 0.1, ctx);
                    },
                    [&](const ComputeContext& ctx) {
                      // Two steps from the same weights, so momentum and
                      // both norm passes count.
                      restore();
                      optim::Lars lars;
                      lars.step(params, 0.1, ctx);
                      lars.step(params, 0.1, ctx);
                      std::vector<float> out;
                      for (const double lr : lars.last_local_lrs()) {
                        const auto b = double_bits({lr});
                        out.insert(out.end(), b.begin(), b.end());
                      }
                      for (auto& p : params) {
                        out.insert(out.end(), p.value->span().begin(),
                                   p.value->span().end());
                      }
                      return out;
                    }) &&
        all_match;
  }

  const Shape shape{4, 128, 16, 16};
  const double n = static_cast<double>(shape.numel());
  Rng rng(51);
  Tensor x(shape), dy(shape);
  rng.fill_normal(x.span(), 0.0f, 1.0f);
  rng.fill_normal(dy.span(), 0.0f, 1.0f);
  const auto floats = [](const Tensor& t) {
    return std::vector<float>(t.span().begin(), t.span().end());
  };
  nn::MaxPool2d pool(2, 2, 0);
  Tensor py, pdx;
  Tensor pdy(pool.output_shape(shape));
  rng.fill_normal(pdy.span(), 0.0f, 1.0f);
  const auto pool_fwd = [&](const ComputeContext& ctx) {
    pool.forward(x, py, true, ctx);
  };
  all_match = threads_row(summary, "maxpool2_s2_fwd", 4 * n + 2 * 4 * (n / 4),
                          pool_fwd,
                          [&](const ComputeContext& ctx) {
                            pool_fwd(ctx);
                            return floats(py);
                          }) &&
              all_match;
  const auto pool_bwd = [&](const ComputeContext& ctx) {
    pool.backward(x, py, pdy, pdx, ctx);
  };
  all_match = threads_row(summary, "maxpool2_s2_bwd", 4 * n + 2 * 4 * (n / 4),
                          pool_bwd,
                          [&](const ComputeContext& ctx) {
                            pool_bwd(ctx);
                            return floats(pdx);
                          }) &&
              all_match;

  // Conv2d's bias gradient: one double sum per (image, channel) plane of
  // dy, computed images-parallel into per-image rows as Conv2d's batch
  // chunks do.
  const std::int64_t batch = shape[0], ch = shape[1];
  const std::int64_t spatial = shape[2] * shape[3];
  std::vector<float> db(static_cast<std::size_t>(batch * ch));
  const auto bias = [&](const ComputeContext& ctx) {
    ctx.parallel_for(
        0, batch,
        [&](std::int64_t lo, std::int64_t hi) {
          for (std::int64_t i = lo; i < hi; ++i) {
            for (std::int64_t c0 = 0; c0 < ch; c0 += kernels::kMaxLanes) {
              const std::int64_t count = std::min(kernels::kMaxLanes, ch - c0);
              double sums[kernels::kMaxLanes];
              kernels::plane_sums(dy.data() + (i * ch + c0) * spatial, count,
                                  spatial, sums);
              for (std::int64_t k = 0; k < count; ++k) {
                db[i * ch + c0 + k] = static_cast<float>(sums[k]);
              }
            }
          }
        },
        /*grain=*/1);
  };
  all_match = threads_row(summary, "conv_bias_bwd", 4 * n, bias,
                          [&](const ComputeContext& ctx) {
                            bias(ctx);
                            return db;
                          }) &&
              all_match;
  return all_match;
}

/// Returns false when any checksum differs between arms, thread counts or
/// conv lowerings.
bool run_kernel_summary() {
  bench::banner("bench_kernels: scalar vs dispatched microkernel sgemm",
                "single-node kernel efficiency underpins the time-to-accuracy "
                "scaling argument (paper Sec. 1: 'ImageNet training in "
                "minutes' starts from saturated per-node GEMMs)");

  bench::JsonSummary summary("kernels");
  summary.add_string("active_isa", kernels::to_string(kernels::active()));

  ComputeContext one(1);
  bool all_checksums_match = true;

  // One column per supported microkernel arm (portable first), then `simd`:
  // the dispatched default, i.e. the widest arm.
  std::vector<kernels::Isa> arms;
  for (kernels::Isa isa : kernels::kAllIsas) {
    if (kernels::supported(isa)) arms.push_back(isa);
  }

  bench::section("sgemm NxNxN, single thread, best of 5");
  std::printf("%6s %13s %13s", "N", "scalar GF/s", "autovec GF/s");
  for (kernels::Isa isa : arms) {
    std::printf(" %10s GF/s", kernels::to_string(isa));
  }
  std::printf(" %11s %9s\n", "simd GF/s", "speedup");
  for (const std::int64_t n : {256, 384, 512}) {
    Rng rng(static_cast<std::uint64_t>(n));
    std::vector<float> a(static_cast<std::size_t>(n * n));
    std::vector<float> b(static_cast<std::size_t>(n * n));
    std::vector<float> c(static_cast<std::size_t>(n * n));
    rng.fill_normal(a, 0.0f, 1.0f);
    rng.fill_normal(b, 0.0f, 1.0f);
    const double flops = 2.0 * n * n * n;
    const std::string prefix = "sgemm" + std::to_string(n);
    auto run = [&] {
      sgemm(one, Trans::kNo, Trans::kNo, n, n, n, 1.0f, a.data(), n, b.data(),
            n, 0.0f, c.data(), n);
    };

    const double t_scalar = time_best(
        5, [&] { baseline_sgemm_scalar(n, a.data(), b.data(), c.data()); });
    const double t_autovec = time_best(
        5, [&] { baseline_sgemm_autovec(n, a.data(), b.data(), c.data()); });
    std::printf("%6lld %13.2f %13.2f", static_cast<long long>(n),
                flops / t_scalar * 1e-9, flops / t_autovec * 1e-9);

    // Every arm must produce the portable arm's bytes.
    std::uint64_t sum_portable = 0;
    bool arms_match = true;
    for (kernels::Isa isa : arms) {
      kernels::force(isa);
      const double t = time_best(5, run);
      const std::uint64_t sum = bits_checksum(c);
      if (isa == kernels::Isa::kPortable) sum_portable = sum;
      arms_match = arms_match && sum == sum_portable;
      std::printf(" %15.2f", flops / t * 1e-9);
      summary.add(prefix + "_" + kernels::to_string(isa) + "_gflops",
                  flops / t * 1e-9);
    }
    kernels::clear_force();

    // Dispatched (widest supported) path: the number the scalar-vs-SIMD
    // speedup is quoted for.
    const double t_simd = time_best(5, run);
    const std::uint64_t sum_simd = bits_checksum(c);

    // Thread-count sweep: same bytes for every thread count.
    std::uint64_t sum_threads = sum_simd;
    bool threads_match = true;
    for (const std::size_t t : {2u, 4u, 8u}) {
      ComputeContext ctx(t);
      sgemm(ctx, Trans::kNo, Trans::kNo, n, n, n, 1.0f, a.data(), n, b.data(),
            n, 0.0f, c.data(), n);
      sum_threads = bits_checksum(c);
      threads_match = threads_match && sum_threads == sum_simd;
    }
    const bool match = arms_match && sum_portable == sum_simd && threads_match;
    all_checksums_match = all_checksums_match && match;

    const double speedup = t_scalar / t_simd;
    std::printf(" %11.2f %8.2fx %s\n", flops / t_simd * 1e-9, speedup,
                match ? "" : "CHECKSUM MISMATCH");
    summary.add(prefix + "_scalar_gflops", flops / t_scalar * 1e-9);
    summary.add(prefix + "_autovec_gflops", flops / t_autovec * 1e-9);
    summary.add(prefix + "_simd_gflops", flops / t_simd * 1e-9);
    summary.add(prefix + "_speedup_vs_scalar", speedup);
    summary.add(prefix + "_speedup_vs_autovec", t_autovec / t_simd);
    char hex[32];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(sum_simd));
    summary.add_string(prefix + "_checksum", hex);
  }
  bench::section("conv3x3 64->64 on 8x64x16x16: direct vs im2col, best of 5");
  {
    nn::Conv2d conv(64, 64, 3, 1, 1);
    Rng rng(9);
    conv.init(rng);
    Tensor x({8, 64, 16, 16});
    rng.fill_normal(x.span(), 0.0f, 1.0f);
    Tensor y;
    const double flops = 8.0 * conv.flops(x.shape());

    const ComputeContext ctx;
    std::vector<float> y_ref;
    const double t_im2col = time_best(5, [&] {
      y_ref = testing::im2col_forward(ctx, x, conv.weight(), &conv.bias(), 1,
                                      1);
    });
    const std::uint64_t sum_im2col = bits_checksum(y_ref);
    const double t_direct =
        time_best(5, [&] { conv.forward(x, y, false, ctx); });
    const std::uint64_t sum_direct = bits_checksum(
        std::vector<float>(y.span().begin(), y.span().end()));

    bool match = sum_im2col == sum_direct;
    std::printf("im2col %8.3f ms (%.2f GF/s)  direct %8.3f ms (%.2f GF/s)  "
                "%.2fx %s\n",
                t_im2col * 1e3, flops / t_im2col * 1e-9, t_direct * 1e3,
                flops / t_direct * 1e-9, t_im2col / t_direct,
                match ? "" : "CHECKSUM MISMATCH");
    // The fused path under each arm: same bytes, and the per-arm time.
    for (kernels::Isa isa : arms) {
      kernels::force(isa);
      const double t = time_best(5, [&] { conv.forward(x, y, false, ctx); });
      const bool same = bits_checksum(std::vector<float>(
                            y.span().begin(), y.span().end())) == sum_direct;
      match = match && same;
      std::printf("  direct, %-8s %8.3f ms (%.2f GF/s) %s\n",
                  kernels::to_string(isa), t * 1e3, flops / t * 1e-9,
                  same ? "" : "CHECKSUM MISMATCH");
      summary.add(std::string("conv3x3_direct_") + kernels::to_string(isa) +
                      "_ms",
                  t * 1e3);
    }
    kernels::clear_force();
    all_checksums_match = all_checksums_match && match;
    summary.add("conv3x3_im2col_ms", t_im2col * 1e3);
    summary.add("conv3x3_direct_ms", t_direct * 1e3);
    summary.add("conv3x3_direct_speedup", t_im2col / t_direct);
    summary.add("conv_checksum_match", static_cast<std::int64_t>(match));
  }

  // Backward (dx + dW + db) on the fused lowering vs im2col: two of the
  // shapes the fused backward replaced — the 3x3 above and ResNet-50's 7x7
  // stem at 224x224. dx and the parameter gradients must be byte-equal.
  struct BwdCase {
    const char* key;
    std::int64_t in_c, out_c, k, stride, pad, batch, hw;
  };
  const BwdCase bwd_cases[] = {{"conv3x3", 64, 64, 3, 1, 1, 8, 16},
                               {"conv7x7_stem", 3, 64, 7, 2, 3, 2, 224}};
  for (const BwdCase& bc : bwd_cases) {
    nn::Conv2d conv(bc.in_c, bc.out_c, bc.k, bc.stride, bc.pad);
    const ComputeContext ctx;
    Rng rng(10);
    conv.init(rng);
    Tensor x({bc.batch, bc.in_c, bc.hw, bc.hw});
    rng.fill_normal(x.span(), 0.0f, 1.0f);
    Tensor y, dx;
    conv.forward(x, y, true, ctx);
    Tensor dy(y.shape());
    rng.fill_normal(dy.span(), 0.0f, 1.0f);
    // dW and dx each cost one forward's FLOPs.
    const double flops = 2.0 * bc.batch * conv.flops(x.shape());
    std::vector<float> ref;
    const double t_im2col = time_best(5, [&] {
      ref = testing::im2col_backward(ctx, x, conv.weight(), &conv.bias(), dy,
                                     bc.stride, bc.pad);
    });
    const std::uint64_t sum_im2col = bits_checksum(ref);
    const double t_direct = time_best(5, [&] {
      for (auto& p : conv.params()) p.grad->zero();
      conv.backward(x, y, dy, dx, ctx);
    });
    std::vector<float> bytes(dx.span().begin(), dx.span().end());
    for (auto& p : conv.params()) {
      bytes.insert(bytes.end(), p.grad->span().begin(), p.grad->span().end());
    }
    const std::uint64_t sum_direct = bits_checksum(bytes);
    const bool match = sum_im2col == sum_direct;
    all_checksums_match = all_checksums_match && match;
    bench::section(std::string(bc.key) + " backward: fused vs im2col, best of 5");
    std::printf("im2col %8.3f ms (%.2f GF/s)  fused %8.3f ms (%.2f GF/s)  "
                "%.2fx %s\n",
                t_im2col * 1e3, flops / t_im2col * 1e-9, t_direct * 1e3,
                flops / t_direct * 1e-9, t_im2col / t_direct,
                match ? "" : "CHECKSUM MISMATCH");
    const std::string key = bc.key;
    summary.add(key + "_bwd_im2col_ms", t_im2col * 1e3);
    summary.add(key + "_bwd_direct_ms", t_direct * 1e3);
    summary.add(key + "_bwd_direct_speedup", t_im2col / t_direct);
    summary.add(key + "_bwd_checksum_match", static_cast<std::int64_t>(match));
  }
  all_checksums_match = run_non_gemm_rows(summary) && all_checksums_match;
  all_checksums_match = run_reduction_rows(summary) && all_checksums_match;
  summary.add("checksum_match", static_cast<std::int64_t>(all_checksums_match));

  const std::string path = summary.write();
  std::printf("\nwrote %s\n\n", path.c_str());
  return all_checksums_match;
}

}  // namespace

int main(int argc, char** argv) {
  const bool checksums_match = run_kernel_summary();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  if (!checksums_match) {
    std::fprintf(stderr, "bench_kernels: CHECKSUM MISMATCH\n");
    return 1;
  }
  return 0;
}

#include "tensor/ops.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>

#include "core/check.hpp"
#include "tensor/context.hpp"
#include "tensor/kernels/reduce.hpp"

namespace minsgd {
namespace {
// BLAS-1 span-size agreement is a caller invariant (layers pass views of
// tensors they shaped themselves), so violations abort via the check layer
// rather than throwing.
void check_same_size(std::size_t a, std::size_t b, const char* what) {
  MINSGD_CHECK(a == b, what, ": size mismatch (", a, " vs ", b, ")");
}

// Elementwise ops amortize fork-join over this many elements per chunk.
constexpr std::int64_t kElemGrain = 16384;

// Writes one partial per chunk of [0, n) (grain kElemGrain) and returns the
// chunk count. The chunks are the lanes of kernels::lane_partials; a task
// computes a contiguous group of lanes in one pass, one group per thread.
// Each partial's bits do not depend on its group (see reduce.hpp), so the
// grouping may follow threads() without breaking rule 2 of context.hpp.
std::int64_t chunk_partials(const ComputeContext& ctx, kernels::LaneTerm term,
                            const float* x, const float* y, std::int64_t n,
                            double* px, double* py) {
  const std::int64_t chunks = ComputeContext::chunk_count(n, kElemGrain);
  if (chunks <= 0) return 0;
  const auto groups = std::min<std::int64_t>(
      chunks, static_cast<std::int64_t>(ctx.threads()));
  ctx.for_chunks_n(
      chunks, groups, [&](std::int64_t, std::int64_t lo, std::int64_t hi) {
        std::int64_t start[kernels::kMaxLanes], len[kernels::kMaxLanes];
        for (std::int64_t c = lo; c < hi; ++c) {
          const auto [b, e] = ComputeContext::chunk_bounds(n, chunks, c);
          start[c - lo] = b;
          len[c - lo] = e - b;
        }
        kernels::lane_partials(term, x, y, start, len, hi - lo, px + lo,
                               py != nullptr ? py + lo : nullptr);
      });
  return chunks;
}

// Fixed-order combine: partials in ascending chunk order from +0.0.
double combine(const double* partial, std::int64_t chunks) {
  double acc = 0.0;
  for (std::int64_t c = 0; c < chunks; ++c) acc += partial[c];
  return acc;
}
}  // namespace

void axpy(float alpha, std::span<const float> x, std::span<float> y) {
  check_same_size(x.size(), y.size(), "axpy");
  for (std::size_t i = 0; i < x.size(); ++i) y[i] += alpha * x[i];
}

void scale(float alpha, std::span<float> x) {
  for (auto& v : x) v *= alpha;
}

double dot(std::span<const float> x, std::span<const float> y) {
  check_same_size(x.size(), y.size(), "dot");
  double acc = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    acc += static_cast<double>(x[i]) * static_cast<double>(y[i]);
  }
  return acc;
}

double l2_norm(std::span<const float> x) {
  double acc = 0.0;
  for (float v : x) acc += static_cast<double>(v) * static_cast<double>(v);
  return std::sqrt(acc);
}

double sum(std::span<const float> x) {
  double acc = 0.0;
  for (float v : x) acc += v;
  return acc;
}

float max_value(std::span<const float> x) {
  MINSGD_CHECK(!x.empty(), "max_value: empty span");
  return *std::max_element(x.begin(), x.end());
}

void copy(std::span<const float> x, std::span<float> y) {
  check_same_size(x.size(), y.size(), "copy");
  std::memcpy(y.data(), x.data(), x.size() * sizeof(float));
}

void add(std::span<const float> x, std::span<const float> y,
         std::span<float> z) {
  check_same_size(x.size(), y.size(), "add");
  check_same_size(x.size(), z.size(), "add");
  for (std::size_t i = 0; i < x.size(); ++i) z[i] = x[i] + y[i];
}

void hadamard(std::span<const float> x, std::span<const float> y,
              std::span<float> z) {
  check_same_size(x.size(), y.size(), "hadamard");
  check_same_size(x.size(), z.size(), "hadamard");
  for (std::size_t i = 0; i < x.size(); ++i) z[i] = x[i] * y[i];
}

void relu_inplace(std::span<float> x) {
  for (auto& v : x) v = v > 0.0f ? v : 0.0f;
}

void softmax_rows(std::span<float> x, std::int64_t rows, std::int64_t cols) {
  MINSGD_CHECK(static_cast<std::int64_t>(x.size()) == rows * cols,
               "softmax_rows: size mismatch (", x.size(), " vs ", rows, "x",
               cols, ")");
  for (std::int64_t r = 0; r < rows; ++r) {
    float* row = x.data() + r * cols;
    float m = row[0];
    for (std::int64_t c = 1; c < cols; ++c) m = std::max(m, row[c]);
    double denom = 0.0;
    for (std::int64_t c = 0; c < cols; ++c) {
      row[c] = std::exp(row[c] - m);
      denom += row[c];
    }
    const float inv = static_cast<float>(1.0 / denom);
    for (std::int64_t c = 0; c < cols; ++c) row[c] *= inv;
  }
}

bool all_finite(std::span<const float> x) {
  for (float v : x) {
    if (!std::isfinite(v)) return false;
  }
  return true;
}

void axpy(const ComputeContext& ctx, float alpha, std::span<const float> x,
          std::span<float> y) {
  check_same_size(x.size(), y.size(), "axpy");
  ctx.parallel_for(
      0, static_cast<std::int64_t>(x.size()),
      [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t i = lo; i < hi; ++i) y[i] += alpha * x[i];
      },
      kElemGrain);
}

void scale(const ComputeContext& ctx, float alpha, std::span<float> x) {
  ctx.parallel_for(
      0, static_cast<std::int64_t>(x.size()),
      [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t i = lo; i < hi; ++i) x[i] *= alpha;
      },
      kElemGrain);
}

double dot(const ComputeContext& ctx, std::span<const float> x,
           std::span<const float> y) {
  check_same_size(x.size(), y.size(), "dot");
  double partial[ComputeContext::kMaxChunks];
  const std::int64_t chunks = chunk_partials(
      ctx, kernels::LaneTerm::kDot, x.data(), y.data(),
      static_cast<std::int64_t>(x.size()), partial, nullptr);
  return combine(partial, chunks);
}

double sum(const ComputeContext& ctx, std::span<const float> x) {
  double partial[ComputeContext::kMaxChunks];
  const std::int64_t chunks =
      chunk_partials(ctx, kernels::LaneTerm::kSum, x.data(), nullptr,
                     static_cast<std::int64_t>(x.size()), partial, nullptr);
  return combine(partial, chunks);
}

double l2_norm(const ComputeContext& ctx, std::span<const float> x) {
  return std::sqrt(dot(ctx, x, x));
}

std::pair<double, double> sum_squares(const ComputeContext& ctx,
                                      std::span<const float> x,
                                      std::span<const float> y) {
  check_same_size(x.size(), y.size(), "sum_squares");
  double px[ComputeContext::kMaxChunks], py[ComputeContext::kMaxChunks];
  const std::int64_t chunks =
      chunk_partials(ctx, kernels::LaneTerm::kSquarePair, x.data(), y.data(),
                     static_cast<std::int64_t>(x.size()), px, py);
  return {combine(px, chunks), combine(py, chunks)};
}

void copy(const ComputeContext& ctx, std::span<const float> x,
          std::span<float> y) {
  check_same_size(x.size(), y.size(), "copy");
  ctx.parallel_for(
      0, static_cast<std::int64_t>(x.size()),
      [&](std::int64_t lo, std::int64_t hi) {
        std::memcpy(y.data() + lo, x.data() + lo,
                    static_cast<std::size_t>(hi - lo) * sizeof(float));
      },
      kElemGrain);
}

void add(const ComputeContext& ctx, std::span<const float> x,
         std::span<const float> y, std::span<float> z) {
  check_same_size(x.size(), y.size(), "add");
  check_same_size(x.size(), z.size(), "add");
  ctx.parallel_for(
      0, static_cast<std::int64_t>(x.size()),
      [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t i = lo; i < hi; ++i) z[i] = x[i] + y[i];
      },
      kElemGrain);
}

void hadamard(const ComputeContext& ctx, std::span<const float> x,
              std::span<const float> y, std::span<float> z) {
  check_same_size(x.size(), y.size(), "hadamard");
  check_same_size(x.size(), z.size(), "hadamard");
  ctx.parallel_for(
      0, static_cast<std::int64_t>(x.size()),
      [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t i = lo; i < hi; ++i) z[i] = x[i] * y[i];
      },
      kElemGrain);
}

void relu_inplace(const ComputeContext& ctx, std::span<float> x) {
  ctx.parallel_for(
      0, static_cast<std::int64_t>(x.size()),
      [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t i = lo; i < hi; ++i) {
          x[i] = x[i] > 0.0f ? x[i] : 0.0f;
        }
      },
      kElemGrain);
}

}  // namespace minsgd

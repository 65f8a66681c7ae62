// Elementwise / BLAS-1 style operations used across the stack.
//
// These operate on spans so they serve tensors, raw parameter buffers, and
// communication staging areas alike. All are single-precision.
#pragma once

#include <cstdint>
#include <span>
#include <utility>

namespace minsgd {

class ComputeContext;

/// y += alpha * x  (sizes must match).
void axpy(float alpha, std::span<const float> x, std::span<float> y);

/// x *= alpha.
void scale(float alpha, std::span<float> x);

/// dot product.
double dot(std::span<const float> x, std::span<const float> y);

/// Euclidean norm, accumulated in double for stability.
double l2_norm(std::span<const float> x);

/// Sum of elements (double accumulator).
double sum(std::span<const float> x);

/// Max element; x must be non-empty.
float max_value(std::span<const float> x);

/// y = x (sizes must match).
void copy(std::span<const float> x, std::span<float> y);

/// z = x + y elementwise.
void add(std::span<const float> x, std::span<const float> y,
         std::span<float> z);

/// z = x * y elementwise (Hadamard).
void hadamard(std::span<const float> x, std::span<const float> y,
              std::span<float> z);

/// In-place ReLU.
void relu_inplace(std::span<float> x);

/// Numerically stable in-place softmax over each row of an (rows x cols)
/// row-major matrix.
void softmax_rows(std::span<float> x, std::int64_t rows, std::int64_t cols);

/// True iff every element is finite.
bool all_finite(std::span<const float> x);

// Context-aware overloads. Elementwise ops write disjoint ranges so they
// parallelize freely; the reductions (sum/dot/l2_norm/sum_squares) keep one
// double partial per deterministic chunk and combine partials in chunk
// order, so all of these are bit-identical for any thread count. The
// partials are computed lane-interleaved (tensor/kernels/reduce.hpp): one
// pass carries several chunks, each chunk still summed in its own order.

void axpy(const ComputeContext& ctx, float alpha, std::span<const float> x,
          std::span<float> y);
void scale(const ComputeContext& ctx, float alpha, std::span<float> x);
double dot(const ComputeContext& ctx, std::span<const float> x,
           std::span<const float> y);
double l2_norm(const ComputeContext& ctx, std::span<const float> x);
double sum(const ComputeContext& ctx, std::span<const float> x);
/// {dot(ctx, x, x), dot(ctx, y, y)} bit for bit, in one pass over both
/// (sizes must match): the LARS ||w||^2 / ||g||^2 pair.
std::pair<double, double> sum_squares(const ComputeContext& ctx,
                                      std::span<const float> x,
                                      std::span<const float> y);
void copy(const ComputeContext& ctx, std::span<const float> x,
          std::span<float> y);
void add(const ComputeContext& ctx, std::span<const float> x,
         std::span<const float> y, std::span<float> z);
void hadamard(const ComputeContext& ctx, std::span<const float> x,
              std::span<const float> y, std::span<float> z);
void relu_inplace(const ComputeContext& ctx, std::span<float> x);

}  // namespace minsgd

// Tensor: dense float32 storage with row-major layout.
//
// The minimal tensor a DNN training stack needs: contiguous,
// value-semantic (copies copy data), with convenience indexing for the
// layouts used by layers (NCHW activations, OI/OIHW weights).
//
// Storage comes in two modes:
//   * owning (default): the tensor owns a heap buffer; resize() reallocates
//     when numel changes.
//   * bound: the tensor is a view over caller-provided storage — a
//     TensorArena slice (tensor/arena.hpp). bind() installs the pointer and
//     a float capacity; resize() may reshape within that capacity but never
//     reallocates (exceeding it is a MINSGD_CHECK failure, which is how a
//     stale memory plan announces itself). Copying a bound tensor yields an
//     owning deep copy; assigning *into* a bound tensor — copy or move —
//     copies into the bound storage and leaves the binding in place.
//
// Every owning allocation bumps the `tensor.allocs` / `tensor.alloc_bytes`
// metrics counters, so the memory plan's zero-allocation steady state is a
// measured quantity (tests/test_plan, perfbench's tensor.allocs_per_step),
// not a claim.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/check.hpp"
#include "tensor/shape.hpp"

namespace minsgd {

/// Dense row-major float tensor. Rank <= 4. Copy copies the data.
class Tensor {
 public:
  Tensor() = default;

  /// Allocates zero-initialized storage for `shape`.
  explicit Tensor(Shape shape);

  /// Allocates and fills with `value`.
  Tensor(Shape shape, float value);

  /// Builds from explicit data (size must match shape.numel()).
  Tensor(Shape shape, std::vector<float> data);

  Tensor(const Tensor& other);
  Tensor& operator=(const Tensor& other);
  Tensor(Tensor&& other) noexcept;
  Tensor& operator=(Tensor&& other) noexcept;
  ~Tensor() = default;

  const Shape& shape() const { return shape_; }
  std::int64_t numel() const { return numel_; }
  bool empty() const { return numel_ == 0; }

  float* data() { return ptr_; }
  const float* data() const { return ptr_; }

  std::span<float> span() { return {ptr_, static_cast<std::size_t>(numel_)}; }
  std::span<const float> span() const {
    return {ptr_, static_cast<std::size_t>(numel_)};
  }

  // Indexing is the innermost-loop hot path, so bounds checks are
  // MINSGD_DCHECK: free in release builds, armed in Debug or with
  // -DMINSGD_DCHECK=ON (scripts/check_all.sh arms them in the
  // address,undefined tier).
  float& operator[](std::int64_t i) {
    MINSGD_DCHECK(i >= 0 && i < numel(), "Tensor[", i, "] of ", numel());
    return ptr_[i];
  }
  float operator[](std::int64_t i) const {
    MINSGD_DCHECK(i >= 0 && i < numel(), "Tensor[", i, "] of ", numel());
    return ptr_[i];
  }

  /// 2-D indexing (rows, cols) for matrices.
  float& at(std::int64_t r, std::int64_t c) {
    const std::int64_t i = r * shape_[1] + c;
    MINSGD_DCHECK(i >= 0 && i < numel(),
                  "Tensor::at(", r, ",", c, ") out of bounds");
    return ptr_[i];
  }
  float at(std::int64_t r, std::int64_t c) const {
    const std::int64_t i = r * shape_[1] + c;
    MINSGD_DCHECK(i >= 0 && i < numel(),
                  "Tensor::at(", r, ",", c, ") out of bounds");
    return ptr_[i];
  }

  /// 4-D NCHW indexing.
  float& at(std::int64_t n, std::int64_t c, std::int64_t h, std::int64_t w) {
    const std::int64_t i =
        ((n * shape_[1] + c) * shape_[2] + h) * shape_[3] + w;
    MINSGD_DCHECK(i >= 0 && i < numel(), "Tensor::at(", n, ",", c, ",", h,
                  ",", w, ") out of bounds");
    return ptr_[i];
  }
  float at(std::int64_t n, std::int64_t c, std::int64_t h, std::int64_t w) const {
    const std::int64_t i =
        ((n * shape_[1] + c) * shape_[2] + h) * shape_[3] + w;
    MINSGD_DCHECK(i >= 0 && i < numel(), "Tensor::at(", n, ",", c, ",", h,
                  ",", w, ") out of bounds");
    return ptr_[i];
  }

  /// Sets every element to `value`.
  void fill(float value);

  /// Sets every element to zero.
  void zero() { fill(0.0f); }

  /// Reinterprets the same data under a new shape (numel must match).
  Tensor reshaped(Shape new_shape) const;

  /// Resizes to `shape`, zero-filling when numel changes (same-numel calls
  /// reshape in place and preserve the data). Owning tensors reallocate only
  /// when numel changes; bound tensors never reallocate and check-fail if
  /// `shape` exceeds the bound capacity.
  void resize(Shape shape);

  /// True when this tensor views external storage instead of owning it.
  bool bound() const { return bound_cap_ >= 0; }

  /// Float capacity of the bound storage (-1 when owning).
  std::int64_t bound_capacity() const { return bound_cap_; }

  /// Rebinds this tensor onto caller-owned storage of `capacity` floats,
  /// dropping any owned data. `shape.numel()` must fit the capacity. The
  /// storage must outlive the binding (TensorArena guarantees this for the
  /// plan's lifetime).
  void bind(float* storage, std::int64_t capacity, const Shape& shape);

 private:
  Shape shape_;
  std::vector<float> data_;      // owning storage (empty while bound)
  float* ptr_ = nullptr;         // data_.data() or the bound storage
  std::int64_t numel_ = 0;
  std::int64_t bound_cap_ = -1;  // >= 0 iff bound
};

}  // namespace minsgd

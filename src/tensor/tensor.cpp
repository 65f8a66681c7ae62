#include "tensor/tensor.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/metrics.hpp"

namespace minsgd {

namespace {

// Registry lookup (mutex + map) per allocation is noise next to the malloc
// and zero-fill it annotates, and unlike a cached Counter& it survives
// MetricsRegistry::clear() in tests.
void note_alloc(std::size_t bytes) {
  if (bytes == 0) return;
  auto& reg = obs::metrics();
  reg.counter("tensor.allocs").add(1);
  reg.counter("tensor.alloc_bytes").add(static_cast<std::int64_t>(bytes));
}

}  // namespace

Tensor::Tensor(Shape shape) : shape_(shape) {
  const auto n = static_cast<std::size_t>(shape.numel());
  note_alloc(n * sizeof(float));
  data_.assign(n, 0.0f);
  ptr_ = data_.data();
  numel_ = static_cast<std::int64_t>(n);
}

Tensor::Tensor(Shape shape, float value) : shape_(shape) {
  const auto n = static_cast<std::size_t>(shape.numel());
  note_alloc(n * sizeof(float));
  data_.assign(n, value);
  ptr_ = data_.data();
  numel_ = static_cast<std::int64_t>(n);
}

Tensor::Tensor(Shape shape, std::vector<float> data)
    : shape_(shape), data_(std::move(data)) {
  if (static_cast<std::int64_t>(data_.size()) != shape_.numel()) {
    throw std::invalid_argument("Tensor: data size does not match shape " +
                                shape_.str());
  }
  ptr_ = data_.data();
  numel_ = static_cast<std::int64_t>(data_.size());
}

Tensor::Tensor(const Tensor& other) : shape_(other.shape_) {
  note_alloc(static_cast<std::size_t>(other.numel_) * sizeof(float));
  if (other.numel_ > 0) data_.assign(other.ptr_, other.ptr_ + other.numel_);
  ptr_ = data_.data();
  numel_ = other.numel_;
}

Tensor& Tensor::operator=(const Tensor& other) {
  if (this == &other) return *this;
  if (bound()) {
    MINSGD_CHECK(other.numel_ <= bound_cap_,
                 "Tensor: assigning ", other.numel_,
                 " elements into bound capacity ", bound_cap_);
    if (other.numel_ > 0) std::copy_n(other.ptr_, other.numel_, ptr_);
  } else {
    const auto n = static_cast<std::size_t>(other.numel_);
    if (n > data_.capacity()) note_alloc(n * sizeof(float));
    if (n > 0) {
      data_.assign(other.ptr_, other.ptr_ + other.numel_);
    } else {
      data_.clear();
    }
    ptr_ = data_.data();
  }
  numel_ = other.numel_;
  shape_ = other.shape_;
  return *this;
}

Tensor::Tensor(Tensor&& other) noexcept
    : shape_(other.shape_),
      data_(std::move(other.data_)),
      numel_(other.numel_),
      bound_cap_(other.bound_cap_) {
  ptr_ = bound() ? other.ptr_ : data_.data();
  other.shape_ = Shape{};
  other.data_.clear();
  other.ptr_ = nullptr;
  other.numel_ = 0;
  other.bound_cap_ = -1;
}

Tensor& Tensor::operator=(Tensor&& other) noexcept {
  if (this == &other) return *this;
  // A bound tensor's storage belongs to its binder (an arena, a network's
  // flat parameter buffer); taking `other`'s storage would silently detach
  // the view, so assignment writes through it exactly like copy-assign.
  if (bound()) return *this = static_cast<const Tensor&>(other);
  shape_ = other.shape_;
  data_ = std::move(other.data_);
  numel_ = other.numel_;
  bound_cap_ = other.bound_cap_;
  ptr_ = bound() ? other.ptr_ : data_.data();
  other.shape_ = Shape{};
  other.data_.clear();
  other.ptr_ = nullptr;
  other.numel_ = 0;
  other.bound_cap_ = -1;
  return *this;
}

void Tensor::fill(float value) {
  std::fill_n(ptr_, static_cast<std::size_t>(numel_), value);
}

Tensor Tensor::reshaped(Shape new_shape) const {
  if (new_shape.numel() != shape_.numel()) {
    throw std::invalid_argument("Tensor::reshaped: numel mismatch " +
                                shape_.str() + " -> " + new_shape.str());
  }
  Tensor t(*this);
  t.shape_ = new_shape;
  return t;
}

void Tensor::resize(Shape shape) {
  // Compare against the actual element count: a default-constructed tensor
  // has a rank-0 shape whose numel() is 1 but holds no data.
  const std::int64_t n = shape.numel();
  if (bound()) {
    MINSGD_CHECK(n <= bound_cap_, "Tensor::resize: shape ", shape.str(),
                 " exceeds bound capacity ", bound_cap_);
    if (n != numel_) std::fill_n(ptr_, static_cast<std::size_t>(n), 0.0f);
    numel_ = n;
  } else if (static_cast<std::size_t>(n) != data_.size()) {
    if (static_cast<std::size_t>(n) > data_.capacity()) {
      note_alloc(static_cast<std::size_t>(n) * sizeof(float));
    }
    data_.assign(static_cast<std::size_t>(n), 0.0f);
    ptr_ = data_.data();
    numel_ = n;
  }
  shape_ = shape;
}

void Tensor::bind(float* storage, std::int64_t capacity, const Shape& shape) {
  MINSGD_CHECK(capacity >= 0 && (storage != nullptr || capacity == 0),
               "Tensor::bind: bad storage");
  MINSGD_CHECK(shape.numel() <= capacity, "Tensor::bind: shape ", shape.str(),
               " exceeds capacity ", capacity);
  data_.clear();
  data_.shrink_to_fit();
  shape_ = shape;
  ptr_ = storage;
  numel_ = shape.numel();
  bound_cap_ = capacity;
}

}  // namespace minsgd

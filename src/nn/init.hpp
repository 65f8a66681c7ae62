// Weight initializers.
#pragma once

#include <cstdint>

#include "tensor/rng.hpp"
#include "tensor/tensor.hpp"

namespace minsgd::nn {

/// He (Kaiming) normal: N(0, sqrt(2 / fan_in)). The standard choice for
/// ReLU networks (used for every conv / linear weight in the model zoo).
void he_normal(Tensor& w, std::int64_t fan_in, Rng& rng);

}  // namespace minsgd::nn

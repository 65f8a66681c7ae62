#include "nn/init.hpp"

#include <cmath>
#include <stdexcept>

namespace minsgd::nn {

void he_normal(Tensor& w, std::int64_t fan_in, Rng& rng) {
  if (fan_in <= 0) throw std::invalid_argument("he_normal: fan_in <= 0");
  const float stddev = std::sqrt(2.0f / static_cast<float>(fan_in));
  rng.fill_normal(w.span(), 0.0f, stddev);
}

}  // namespace minsgd::nn

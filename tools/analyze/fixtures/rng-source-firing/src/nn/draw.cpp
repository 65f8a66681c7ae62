// Firing: std::random_device used outside src/tensor/rng.*.
// Expected finding: rng-source/foreign-rng
#include <random>

unsigned draw() {
  std::random_device rd;
  return rd();
}

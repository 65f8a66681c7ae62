// Firing: reinterpret_cast without the mandatory justification comment.
// Expected finding: cast/unjustified-cast
#include <cstdint>

float punned(std::uint32_t bits) {
  return *reinterpret_cast<float*>(&bits);
}

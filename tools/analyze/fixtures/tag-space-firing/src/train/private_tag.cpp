// Firing: hand-minted tag in the reserved collective tag space.
// Expected finding: tag-space/hand-minted-tag
#include <cstdint>

std::int64_t my_private_tag(int channel) {
  return (std::int64_t{1} << 40) + channel;
}

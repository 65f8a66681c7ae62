// Firing: a communicator on a channel past kMaxChannels.
// Expected finding: tag-space/channel-range
#include "comm/communicator.hpp"

namespace minsgd::train {

void start_rogue(int r) {
  comm::Communicator comm(r, 9);
  (void)comm;
}

}  // namespace minsgd::train

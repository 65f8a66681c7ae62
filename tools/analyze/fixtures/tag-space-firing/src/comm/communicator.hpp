#pragma once
#include <cstdint>

namespace minsgd::comm {

class Communicator {
 public:
  static constexpr std::int64_t kCollectiveBase = std::int64_t{1} << 40;
  static constexpr std::int64_t kChannelStride = std::int64_t{1} << 36;
  static constexpr std::int64_t kMaxChannels = 8;
  // BUG under test: kMaxChannels * kChannelStride (2^39) overflows into the
  // generation field (tag-space/tag-arith).
  static constexpr std::int64_t kGenerationStride = std::int64_t{1} << 38;
  static constexpr std::int64_t kMaxGenerations = std::int64_t{1} << 19;
  static constexpr int kMembershipChannel = 2;

  explicit Communicator(int rank, int channel = 0)
      : rank_(rank), channel_(channel) {}

 private:
  int rank_;
  int channel_;
};

}  // namespace minsgd::comm

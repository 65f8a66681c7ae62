#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "comm/param_server.hpp"

namespace minsgd {
namespace {

using comm::ParameterServer;

TEST(ParameterServer, PullReturnsInitialWeights) {
  ParameterServer ps({1.0f, 2.0f, 3.0f});
  ps.set_workers(1);
  std::vector<float> w(3);
  ps.pull(0, w);
  EXPECT_EQ(w, (std::vector<float>{1.0f, 2.0f, 3.0f}));
}

TEST(ParameterServer, PushAppliesSgdStep) {
  ParameterServer ps({1.0f});
  ps.set_workers(1);
  std::vector<float> w(1);
  ps.pull(0, w);
  ps.push_pull(0, std::vector<float>{2.0f}, 0.5, w);
  EXPECT_FLOAT_EQ(w[0], 0.0f);  // 1 - 0.5*2
  EXPECT_EQ(ps.updates_applied(), 1);
}

TEST(ParameterServer, StalenessZeroWhenAlone) {
  ParameterServer ps({0.0f});
  ps.set_workers(1);
  std::vector<float> w(1);
  ps.pull(0, w);
  EXPECT_EQ(ps.push_pull(0, std::vector<float>{1.0f}, 0.1, w), 0);
  EXPECT_EQ(ps.push_pull(0, std::vector<float>{1.0f}, 0.1, w), 0);
}

TEST(ParameterServer, StalenessCountsInterleavedUpdates) {
  ParameterServer ps({0.0f});
  ps.set_workers(2);
  std::vector<float> w(1);
  ps.pull(0, w);
  ps.pull(1, w);
  ps.push_pull(1, std::vector<float>{1.0f}, 0.1, w);
  ps.push_pull(1, std::vector<float>{1.0f}, 0.1, w);
  // Worker 0 pulled at version 0; two updates landed since.
  EXPECT_EQ(ps.push_pull(0, std::vector<float>{1.0f}, 0.1, w), 2);
  EXPECT_EQ(ps.max_staleness(), 2);
}

TEST(ParameterServer, DimensionMismatchThrows) {
  ParameterServer ps({0.0f, 0.0f});
  ps.set_workers(1);
  std::vector<float> w(2), bad(1);
  EXPECT_THROW(ps.pull(0, bad), std::invalid_argument);
  EXPECT_THROW(ps.push_pull(0, bad, 0.1, w), std::invalid_argument);
}

TEST(ParameterServer, ConcurrentPushesAllApplied) {
  ParameterServer ps({0.0f});
  const int workers = 8, per_worker = 50;
  ps.set_workers(workers);
  // minsgd-analyze: allow(thread-spawn): raw threads hammer
  // ParameterServer::push_pull on purpose — the unit under test is its
  // internal locking.
  std::vector<std::thread> threads;
  for (int t = 0; t < workers; ++t) {
    threads.emplace_back([&, t] {
      std::vector<float> w(1);
      ps.pull(t, w);
      for (int i = 0; i < per_worker; ++i) {
        ps.push_pull(t, std::vector<float>{1.0f}, 1.0, w);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(ps.updates_applied(), workers * per_worker);
  std::vector<float> w(1);
  ps.pull(0, w);
  EXPECT_FLOAT_EQ(w[0], -static_cast<float>(workers * per_worker));
}

}  // namespace
}  // namespace minsgd

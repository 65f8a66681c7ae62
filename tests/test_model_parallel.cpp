// Model parallelism (Figure 2(b)): the sharded layer must compute exactly
// what the single-machine layer computes, for any world size — including
// worlds that do not divide the output dimension.
#include <gtest/gtest.h>

#include "comm/cluster.hpp"
#include "comm/model_parallel.hpp"
#include "nn/init.hpp"
#include "nn/linear.hpp"
#include "tensor/ops.hpp"
#include "postmortem_path.hpp"

namespace minsgd {
namespace {

class ShardedLinearWorlds : public ::testing::TestWithParam<int> {};

TEST_P(ShardedLinearWorlds, ForwardMatchesLocalLinear) {
  const ComputeContext ctx;
  const int world = GetParam();
  const std::int64_t in = 6, out = 10, batch = 3;

  // Reference on one machine with the same seed.
  nn::Linear ref(in, out);
  Rng ref_rng(77);
  nn::he_normal(ref.weight(), in, ref_rng);
  ref.bias().zero();
  Tensor x({batch, in});
  Rng xrng(5);
  xrng.fill_normal(x.span(), 0.0f, 1.0f);
  Tensor y_ref;
  ref.forward(x, y_ref, false, ctx);

  comm::SimCluster cluster(world);
  cluster.run([&](comm::Communicator& comm) {
    comm::ShardedLinear layer(comm, in, out);
    layer.init(77);
    Tensor y;
    layer.forward(x, y);
    ASSERT_EQ(y.shape(), y_ref.shape());
    for (std::int64_t i = 0; i < y.numel(); ++i) {
      ASSERT_NEAR(y[i], y_ref[i], 1e-4) << "world " << world << " i " << i;
    }
  });
}

TEST_P(ShardedLinearWorlds, BackwardMatchesLocalLinear) {
  const ComputeContext ctx;
  const int world = GetParam();
  const std::int64_t in = 5, out = 9, batch = 2;

  nn::Linear ref(in, out);
  Rng ref_rng(13);
  nn::he_normal(ref.weight(), in, ref_rng);
  ref.bias().zero();
  Tensor x({batch, in}), dy({batch, out});
  Rng xrng(21);
  xrng.fill_normal(x.span(), 0.0f, 1.0f);
  xrng.fill_normal(dy.span(), 0.0f, 1.0f);
  Tensor y_ref, dx_ref;
  ref.forward(x, y_ref, true, ctx);
  for (auto& p : ref.params()) p.grad->zero();
  ref.backward(x, y_ref, dy, dx_ref, ctx);
  const auto ref_params = ref.params();

  comm::SimCluster cluster(world);
  cluster.run([&](comm::Communicator& comm) {
    comm::ShardedLinear layer(comm, in, out);
    layer.init(13);
    Tensor y, dx;
    layer.forward(x, y);
    layer.backward(x, dy, dx);
    // dx identical on every rank, equal to the reference.
    for (std::int64_t i = 0; i < dx.numel(); ++i) {
      ASSERT_NEAR(dx[i], dx_ref[i], 1e-4);
    }
    // Local weight gradient equals the matching rows of the reference dW.
    const Tensor& dw_ref = *ref_params[0].grad;
    for (std::int64_t r = 0; r < layer.local_rows(); ++r) {
      for (std::int64_t c = 0; c < in; ++c) {
        ASSERT_NEAR(layer.weight_grad().at(r, c),
                    dw_ref.at(layer.first_row() + r, c), 1e-4);
      }
    }
    // Bias gradient slice likewise.
    const Tensor& db_ref = *ref_params[1].grad;
    for (std::int64_t r = 0; r < layer.local_rows(); ++r) {
      ASSERT_NEAR(layer.bias_grad()[r], db_ref[layer.first_row() + r], 1e-4);
    }
  });
}

INSTANTIATE_TEST_SUITE_P(Worlds, ShardedLinearWorlds,
                         ::testing::Values(1, 2, 3, 4, 5, 8));

TEST(ShardedLinear, ShardsCoverAllRowsExactlyOnce) {
  const int world = 3;
  const std::int64_t out = 10;  // 10 = 4 + 3 + 3
  comm::SimCluster cluster(world);
  std::mutex mu;
  std::vector<std::pair<std::int64_t, std::int64_t>> shards;
  cluster.run([&](comm::Communicator& comm) {
    comm::ShardedLinear layer(comm, 4, out);
    std::lock_guard lk(mu);
    shards.emplace_back(layer.first_row(), layer.local_rows());
  });
  std::int64_t covered = 0;
  for (const auto& [first, rows] : shards) covered += rows;
  EXPECT_EQ(covered, out);
}

TEST(ShardedLinear, RejectsMoreRanksThanRows) {
  comm::SimCluster cluster(4);
  EXPECT_THROW(cluster.run([](comm::Communicator& comm) {
    comm::ShardedLinear layer(comm, 4, 2);
  }),
               std::invalid_argument);
}

TEST(ShardedLinear, CommunicationVolumePerForward) {
  // The Figure 2(b) trade-off made concrete: each forward moves the full
  // activation matrix (batch x out floats) around the ring.
  const int world = 4;
  const std::int64_t in = 8, out = 16, batch = 4;
  comm::SimCluster cluster(world);
  cluster.run([&](comm::Communicator& comm) {
    comm::ShardedLinear layer(comm, in, out);
    layer.init(1);
    Tensor x({batch, in}), y;
    Rng rng(2);
    rng.fill_normal(x.span(), 0.0f, 1.0f);
    layer.forward(x, y);
  });
  EXPECT_GT(cluster.total_traffic().bytes,
            batch * out * 4);  // at least one full activation on the wire
}

}  // namespace
}  // namespace minsgd

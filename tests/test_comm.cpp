#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <mutex>
#include <numeric>
#include <span>
#include <tuple>
#include <vector>

#include "comm/cluster.hpp"
#include "comm/membership.hpp"
#include "tensor/rng.hpp"
#include "postmortem_path.hpp"

namespace minsgd {
namespace {

using comm::AllreduceAlgo;
using comm::Communicator;
using comm::SimCluster;

TEST(SimCluster, RejectsNonPositiveWorld) {
  EXPECT_THROW(SimCluster(0), std::invalid_argument);
  EXPECT_THROW(SimCluster(-3), std::invalid_argument);
}

TEST(SimCluster, RunsEveryRank) {
  SimCluster cluster(5);
  std::vector<int> seen(5, 0);
  std::mutex mu;
  cluster.run([&](Communicator& comm) {
    std::lock_guard lk(mu);
    seen[static_cast<std::size_t>(comm.rank())] = 1;
    EXPECT_EQ(comm.world(), 5);
  });
  EXPECT_EQ(std::accumulate(seen.begin(), seen.end(), 0), 5);
}

TEST(SimCluster, PropagatesRankExceptions) {
  SimCluster cluster(3);
  EXPECT_THROW(cluster.run([](Communicator& comm) {
    if (comm.rank() == 1) throw std::runtime_error("boom");
  }),
               std::runtime_error);
}

TEST(PointToPoint, SendRecvDeliversPayload) {
  SimCluster cluster(2);
  cluster.run([](Communicator& comm) {
    if (comm.rank() == 0) {
      std::vector<float> msg{1.5f, -2.5f};
      comm.send(1, 7, msg);
    } else {
      const auto got = comm.recv(0, 7);
      ASSERT_EQ(got.size(), 2u);
      EXPECT_EQ(got[0], 1.5f);
      EXPECT_EQ(got[1], -2.5f);
    }
  });
}

TEST(PointToPoint, TagsDisambiguate) {
  SimCluster cluster(2);
  cluster.run([](Communicator& comm) {
    if (comm.rank() == 0) {
      comm.send(1, 1, std::vector<float>{1.0f});
      comm.send(1, 2, std::vector<float>{2.0f});
    } else {
      // Receive in reverse tag order.
      EXPECT_EQ(comm.recv(0, 2)[0], 2.0f);
      EXPECT_EQ(comm.recv(0, 1)[0], 1.0f);
    }
  });
}

TEST(PointToPoint, FifoWithinChannel) {
  SimCluster cluster(2);
  cluster.run([](Communicator& comm) {
    if (comm.rank() == 0) {
      for (int i = 0; i < 10; ++i) {
        comm.send(1, 0, std::vector<float>{static_cast<float>(i)});
      }
    } else {
      for (int i = 0; i < 10; ++i) {
        EXPECT_EQ(comm.recv(0, 0)[0], static_cast<float>(i));
      }
    }
  });
}

TEST(PointToPoint, SelfSendThrows) {
  SimCluster cluster(2);
  EXPECT_THROW(cluster.run([](Communicator& comm) {
    comm.send(comm.rank(), 0, std::vector<float>{1.0f});
  }),
               std::invalid_argument);
}

TEST(Barrier, AllRanksPass) {
  SimCluster cluster(8);
  std::atomic<int> before{0}, after{0};
  cluster.run([&](Communicator& comm) {
    before.fetch_add(1);
    comm.barrier();
    EXPECT_EQ(before.load(), 8);  // nobody passes until everyone arrives
    after.fetch_add(1);
  });
  EXPECT_EQ(after.load(), 8);
}

// ---------------- broadcast / reduce ----------------

class BroadcastWorlds : public ::testing::TestWithParam<int> {};

TEST_P(BroadcastWorlds, EveryRankGetsRootData) {
  const int world = GetParam();
  SimCluster cluster(world);
  for (int root = 0; root < std::min(world, 3); ++root) {
    cluster.run([&](Communicator& comm) {
      std::vector<float> data(17, comm.rank() == root ? 42.0f : -1.0f);
      comm.broadcast(data, root);
      for (float v : data) EXPECT_EQ(v, 42.0f);
    });
  }
}

INSTANTIATE_TEST_SUITE_P(Worlds, BroadcastWorlds,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8, 16));

class ReduceWorlds : public ::testing::TestWithParam<int> {};

TEST_P(ReduceWorlds, RootHoldsSum) {
  const int world = GetParam();
  SimCluster cluster(world);
  cluster.run([&](Communicator& comm) {
    std::vector<float> data(5, static_cast<float>(comm.rank() + 1));
    comm.reduce_sum(data, 0);
    if (comm.rank() == 0) {
      const float expect = static_cast<float>(world * (world + 1) / 2);
      for (float v : data) EXPECT_EQ(v, expect);
    }
  });
}

INSTANTIATE_TEST_SUITE_P(Worlds, ReduceWorlds,
                         ::testing::Values(1, 2, 3, 4, 6, 8, 9, 16));

// ---------------- allreduce (all algorithms x world sizes) ----------------

class AllreduceMatrix
    : public ::testing::TestWithParam<std::tuple<AllreduceAlgo, int, int>> {};

TEST_P(AllreduceMatrix, MatchesSequentialSum) {
  const auto [algo, world, n] = GetParam();
  SimCluster cluster(world);
  // Expected: elementwise sum of every rank's deterministic vector.
  std::vector<std::vector<float>> inputs(static_cast<std::size_t>(world));
  for (int r = 0; r < world; ++r) {
    Rng rng(static_cast<std::uint64_t>(r) * 77 + 1);
    inputs[static_cast<std::size_t>(r)].resize(static_cast<std::size_t>(n));
    rng.fill_uniform(inputs[static_cast<std::size_t>(r)], -1.0f, 1.0f);
  }
  std::vector<float> expected(static_cast<std::size_t>(n), 0.0f);
  for (const auto& in : inputs) {
    for (std::size_t i = 0; i < expected.size(); ++i) expected[i] += in[i];
  }
  cluster.run([&](Communicator& comm) {
    auto data = inputs[static_cast<std::size_t>(comm.rank())];
    comm.allreduce_sum(data, algo);
    for (std::size_t i = 0; i < expected.size(); ++i) {
      ASSERT_NEAR(data[i], expected[i], 1e-4)
          << comm::to_string(algo) << " world=" << world << " i=" << i;
    }
  });
}

INSTANTIATE_TEST_SUITE_P(
    AlgoWorldSize, AllreduceMatrix,
    ::testing::Combine(
        ::testing::Values(AllreduceAlgo::kStar, AllreduceAlgo::kRing,
                          AllreduceAlgo::kTree,
                          AllreduceAlgo::kRecursiveHalving),
        ::testing::Values(1, 2, 3, 4, 5, 7, 8, 12, 16, 17),
        ::testing::Values(1, 5, 64, 1000)));

class AllreduceStarBaseline : public ::testing::TestWithParam<int> {};

// Every algorithm must agree with the star baseline on the same inputs —
// the direct pairwise check, complementing the sequential-sum oracle above.
// Odd worlds (3, 5, 7) stress the non-power-of-two paths of ring/tree/RHD;
// world=1 must be a no-op for all of them.
TEST_P(AllreduceStarBaseline, AllAlgosMatchStarResult) {
  const int world = GetParam();
  const int n = 129;  // not divisible by any of the tested worlds
  std::vector<std::vector<float>> inputs(static_cast<std::size_t>(world));
  for (int r = 0; r < world; ++r) {
    Rng rng(static_cast<std::uint64_t>(r) * 31 + 9);
    inputs[static_cast<std::size_t>(r)].resize(n);
    rng.fill_uniform(inputs[static_cast<std::size_t>(r)], -2.0f, 2.0f);
  }
  auto run_algo = [&](AllreduceAlgo algo) {
    SimCluster cluster(world);
    std::vector<float> rank0_out;
    std::mutex mu;
    cluster.run([&](Communicator& comm) {
      auto data = inputs[static_cast<std::size_t>(comm.rank())];
      comm.allreduce_sum(data, algo);
      if (comm.rank() == 0) {
        std::lock_guard lk(mu);
        rank0_out = std::move(data);
      }
    });
    return rank0_out;
  };
  const auto star = run_algo(AllreduceAlgo::kStar);
  ASSERT_EQ(star.size(), static_cast<std::size_t>(n));
  for (const auto algo :
       {AllreduceAlgo::kRing, AllreduceAlgo::kTree,
        AllreduceAlgo::kRecursiveHalving}) {
    const auto got = run_algo(algo);
    ASSERT_EQ(got.size(), star.size()) << comm::to_string(algo);
    for (std::size_t i = 0; i < star.size(); ++i) {
      // Summation order differs between algorithms; values must agree to
      // float rounding.
      ASSERT_NEAR(got[i], star[i], 1e-4)
          << comm::to_string(algo) << " world=" << world << " i=" << i;
    }
    if (world == 1) {
      // With one rank no algorithm may touch the data at all.
      EXPECT_EQ(got, inputs[0]) << comm::to_string(algo);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Worlds, AllreduceStarBaseline,
                         ::testing::Values(1, 3, 5, 7));

TEST(Allreduce, RepeatedCollectivesStayConsistent) {
  SimCluster cluster(4);
  cluster.run([](Communicator& comm) {
    for (int round = 0; round < 20; ++round) {
      std::vector<float> data(8, 1.0f);
      comm.allreduce_sum(data, AllreduceAlgo::kRing);
      for (float v : data) ASSERT_EQ(v, 4.0f);
      std::vector<float> d2(3, static_cast<float>(comm.rank()));
      comm.allreduce_sum(d2, AllreduceAlgo::kTree);
      for (float v : d2) ASSERT_EQ(v, 6.0f);
    }
  });
}

TEST(Allgather, CollectsInRankOrder) {
  const int world = 5;
  SimCluster cluster(world);
  cluster.run([&](Communicator& comm) {
    std::vector<float> local{static_cast<float>(comm.rank() * 10),
                             static_cast<float>(comm.rank() * 10 + 1)};
    std::vector<float> out(2 * world);
    comm.allgather(local, out);
    for (int r = 0; r < world; ++r) {
      EXPECT_EQ(out[static_cast<std::size_t>(2 * r)], r * 10.0f);
      EXPECT_EQ(out[static_cast<std::size_t>(2 * r + 1)], r * 10.0f + 1.0f);
    }
  });
}

TEST(Allgather, RejectsWrongOutputSize) {
  SimCluster cluster(2);
  EXPECT_THROW(cluster.run([](Communicator& comm) {
    std::vector<float> local(3), out(5);
    comm.allgather(local, out);
  }),
               std::invalid_argument);
}

// ---------------- traffic metering ----------------

TEST(Traffic, StarCountsTwoPMinusTwoMessages) {
  const int world = 6;
  SimCluster cluster(world);
  cluster.run([](Communicator& comm) {
    std::vector<float> data(10, 1.0f);
    comm.allreduce_sum(data, AllreduceAlgo::kStar);
  });
  EXPECT_EQ(cluster.total_traffic().messages, 2 * (world - 1));
  EXPECT_EQ(cluster.total_traffic().bytes, 2 * (world - 1) * 10 * 4);
}

TEST(Traffic, RingCountsTwoPMinusOneRounds) {
  const int world = 4;
  const int n = 100;
  SimCluster cluster(world);
  cluster.run([](Communicator& comm) {
    std::vector<float> data(n, 1.0f);
    comm.allreduce_sum(data, AllreduceAlgo::kRing);
  });
  // Each rank sends 2*(P-1) chunk messages of ~n/P floats.
  EXPECT_EQ(cluster.total_traffic().messages, world * 2 * (world - 1));
  EXPECT_EQ(cluster.total_traffic().bytes, 2 * (world - 1) * n * 4);
}

TEST(Traffic, RingMovesLessDataPerNodeThanStarAtScale) {
  // The bandwidth argument: ring per-node bytes ~ 2*V, star root ~ 2*(P-1)*V.
  const int world = 8;
  const int n = 256;
  SimCluster ring_cluster(world);
  ring_cluster.run([](Communicator& comm) {
    std::vector<float> d(n, 1.0f);
    comm.allreduce_sum(d, AllreduceAlgo::kRing);
  });
  SimCluster star_cluster(world);
  star_cluster.run([](Communicator& comm) {
    std::vector<float> d(n, 1.0f);
    comm.allreduce_sum(d, AllreduceAlgo::kStar);
  });
  // Star root receives and sends P-1 full vectors; find the max per-rank
  // byte count and compare.
  std::int64_t star_max = 0, ring_max = 0;
  for (int r = 0; r < world; ++r) {
    star_max = std::max(star_max, star_cluster.rank_traffic(r).bytes);
    ring_max = std::max(ring_max, ring_cluster.rank_traffic(r).bytes);
  }
  EXPECT_GT(star_max, 2 * ring_max);
}

TEST(Traffic, ResetClears) {
  SimCluster cluster(2);
  cluster.run([](Communicator& comm) {
    if (comm.rank() == 0) comm.send(1, 0, std::vector<float>{1.0f});
    else comm.recv(0, 0);
  });
  EXPECT_GT(cluster.total_traffic().messages, 0);
  cluster.reset_traffic();
  EXPECT_EQ(cluster.total_traffic().messages, 0);
  EXPECT_EQ(cluster.total_traffic().bytes, 0);
}

TEST(Traffic, BarrierIsFree) {
  SimCluster cluster(4);
  cluster.run([](Communicator& comm) { comm.barrier(); });
  EXPECT_EQ(cluster.total_traffic().messages, 0);
}

// ---------------- property-based allreduce trials ----------------
//
// Randomized sweep over (world, payload length, algorithm): every trial
// checks the two properties any allreduce must satisfy —
//   1. agreement: all ranks end with bit-identical vectors, and
//   2. correctness: that vector matches the sequential sum of the inputs
//      to within float tolerance.
// Lengths deliberately include the degenerate cases (0, 1) and values that
// are not multiples of any world size, so chunked algorithms exercise their
// uneven-split paths.

constexpr AllreduceAlgo kAllAlgos[] = {
    AllreduceAlgo::kStar, AllreduceAlgo::kRing, AllreduceAlgo::kTree,
    AllreduceAlgo::kRecursiveHalving};

/// Deterministic per-(trial, rank) input so failures replay exactly.
std::vector<float> property_input(std::uint64_t trial, int rank,
                                  std::size_t n) {
  Rng rng(trial * 1000003ull + static_cast<std::uint64_t>(rank) * 7919ull + 1);
  std::vector<float> v(n);
  rng.fill_uniform(v, -8.0f, 8.0f);
  return v;
}

/// Runs one allreduce on `world` ranks and returns every rank's output.
std::vector<std::vector<float>> run_allreduce_trial(std::uint64_t trial,
                                                    int world, std::size_t n,
                                                    AllreduceAlgo algo) {
  SimCluster cluster(world);
  std::vector<std::vector<float>> outs(static_cast<std::size_t>(world));
  std::mutex mu;
  cluster.run([&](Communicator& comm) {
    auto data = property_input(trial, comm.rank(), n);
    comm.allreduce_sum(data, algo);
    std::lock_guard lk(mu);
    outs[static_cast<std::size_t>(comm.rank())] = std::move(data);
  });
  return outs;
}

class AllreduceProperty : public ::testing::TestWithParam<AllreduceAlgo> {};

TEST_P(AllreduceProperty, RandomTrialsAgreeAndMatchSequentialSum) {
  const AllreduceAlgo algo = GetParam();
  // Fixed edge lengths every trial pool draws from, plus random ones.
  const std::size_t edge_lengths[] = {0, 1, 2, 3, 5, 7, 17, 33, 129, 257};
  Rng meta(0xA11Eu);  // drives the trial shapes, not the payloads
  for (std::uint64_t trial = 0; trial < 24; ++trial) {
    const int world = 1 + static_cast<int>(meta.uniform_int(8));  // 1..8
    std::size_t n;
    if (trial < std::size(edge_lengths)) {
      n = edge_lengths[trial];  // guarantee every edge case is covered
    } else {
      n = static_cast<std::size_t>(meta.uniform_int(1000));
    }
    SCOPED_TRACE(::testing::Message() << "trial=" << trial << " world=" << world
                                      << " n=" << n << " algo="
                                      << comm::to_string(algo));

    const auto outs = run_allreduce_trial(trial, world, n, algo);

    // Property 1: every rank holds the bit-identical result.
    for (int r = 1; r < world; ++r) {
      EXPECT_EQ(outs[static_cast<std::size_t>(r)], outs[0]) << "rank " << r;
    }
    // Property 2: the result is the sequential sum, within float tolerance
    // (reduction order differs per algorithm, so NEAR not EQ).
    std::vector<float> expected(n, 0.0f);
    for (int r = 0; r < world; ++r) {
      const auto in = property_input(trial, r, n);
      for (std::size_t i = 0; i < n; ++i) expected[i] += in[i];
    }
    ASSERT_EQ(outs[0].size(), n);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_NEAR(outs[0][i], expected[i], 1e-3) << "i=" << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllAlgos, AllreduceProperty,
                         ::testing::ValuesIn(kAllAlgos));

TEST(AllreduceProperty, BucketedSweepMatchesWholeVectorPerBucket) {
  // Splitting a payload into arbitrary buckets and allreducing each must
  // give, per bucket, exactly the result of allreducing that bucket alone —
  // the invariant the overlap engine's bit-exactness argument rests on.
  Rng meta(0xB0C4E7u);
  for (std::uint64_t trial = 0; trial < 8; ++trial) {
    const int world = 2 + static_cast<int>(meta.uniform_int(7));  // 2..8
    const std::size_t n = 64 + static_cast<std::size_t>(meta.uniform_int(192));
    const std::size_t bucket = 1 + static_cast<std::size_t>(meta.uniform_int(49));
    SCOPED_TRACE(::testing::Message() << "trial=" << trial << " world=" << world
                                      << " n=" << n << " bucket=" << bucket);

    SimCluster cluster(world);
    std::vector<std::vector<float>> outs(static_cast<std::size_t>(world));
    std::mutex mu;
    cluster.run([&](Communicator& comm) {
      auto data = property_input(trial + 100, comm.rank(), n);
      std::span<float> rest(data);
      while (!rest.empty()) {
        const std::size_t take = std::min(bucket, rest.size());
        comm.allreduce_sum(rest.subspan(0, take), AllreduceAlgo::kRing);
        rest = rest.subspan(take);
      }
      std::lock_guard lk(mu);
      outs[static_cast<std::size_t>(comm.rank())] = std::move(data);
    });

    // Reference: each bucket allreduced in its own single-collective run.
    std::size_t off = 0;
    std::vector<float> ref;
    while (off < n) {
      const std::size_t take = std::min(bucket, n - off);
      SimCluster sub(world);
      std::vector<float> piece;
      std::mutex mu2;
      sub.run([&](Communicator& comm) {
        const auto full = property_input(trial + 100, comm.rank(), n);
        std::vector<float> local(full.begin() + static_cast<std::ptrdiff_t>(off),
                                 full.begin() +
                                     static_cast<std::ptrdiff_t>(off + take));
        comm.allreduce_sum(local, AllreduceAlgo::kRing);
        if (comm.rank() == 0) {
          std::lock_guard lk(mu2);
          piece = std::move(local);
        }
      });
      ref.insert(ref.end(), piece.begin(), piece.end());
      off += take;
    }
    for (int r = 0; r < world; ++r) {
      EXPECT_EQ(outs[static_cast<std::size_t>(r)], ref) << "rank " << r;
    }
  }
}

// ---------------- survivor-group allreduce trials ----------------
//
// Drop a random rank from worlds 2..8 and run every algorithm over a group
// Communicator formed from the survivor MembershipView. Because collectives
// address members by *virtual* rank, the survivor group must produce output
// bit-identical to a fresh fixed-world cluster of the survivor size fed the
// same per-virtual-rank inputs — the property elastic shrink determinism
// rests on.

TEST(SurvivorGroup, AllAlgosBitAgreeWithFixedWorldOfSurvivorSize) {
  Rng meta(0xE1A57Cu);  // drives (world, dropped rank, payload length)
  for (std::uint64_t trial = 0; trial < 14; ++trial) {
    const int world = 2 + static_cast<int>(meta.uniform_int(7));  // 2..8
    const int dropped = static_cast<int>(meta.uniform_int(world));
    const std::size_t n = 1 + static_cast<std::size_t>(meta.uniform_int(300));
    SCOPED_TRACE(::testing::Message() << "trial=" << trial << " world=" << world
                                      << " dropped=" << dropped << " n=" << n);

    comm::MembershipView view;
    view.generation = 1;  // post-shrink generation, fresh tag prefix
    for (int r = 0; r < world; ++r) {
      if (r != dropped) view.ranks.push_back(r);
    }
    const int survivors = view.world();

    for (const AllreduceAlgo algo : kAllAlgos) {
      SCOPED_TRACE(::testing::Message() << "algo=" << comm::to_string(algo));

      // Survivor run: full-world cluster, the dropped rank sits out while
      // the rest allreduce over the group view. Inputs are keyed by the
      // member's virtual rank so the fixed-world reference is comparable.
      std::vector<std::vector<float>> group_outs(
          static_cast<std::size_t>(survivors));
      std::mutex mu;
      SimCluster cluster(world);
      cluster.run([&](Communicator& comm) {
        if (comm.rank() == dropped) return;
        Communicator gc(cluster, comm.rank(), view, /*channel=*/0);
        auto data = property_input(trial + 500, gc.rank(), n);
        gc.allreduce_sum(data, algo);
        std::lock_guard lk(mu);
        group_outs[static_cast<std::size_t>(gc.rank())] = std::move(data);
      });

      std::vector<std::vector<float>> fixed_outs(
          static_cast<std::size_t>(survivors));
      SimCluster fixed(survivors);
      fixed.run([&](Communicator& comm) {
        auto data = property_input(trial + 500, comm.rank(), n);
        comm.allreduce_sum(data, algo);
        std::lock_guard lk(mu);
        fixed_outs[static_cast<std::size_t>(comm.rank())] = std::move(data);
      });

      for (int v = 0; v < survivors; ++v) {
        EXPECT_EQ(group_outs[static_cast<std::size_t>(v)],
                  fixed_outs[static_cast<std::size_t>(v)])
            << "virtual rank " << v;
      }
    }
  }
}

}  // namespace
}  // namespace minsgd

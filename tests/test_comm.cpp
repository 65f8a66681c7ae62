#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <iterator>
#include <memory>
#include <mutex>
#include <numeric>
#include <span>
#include <string>
#include <thread>
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
using namespace std::chrono_literals;

// Ring steps whose chunk reaches Communicator::kRendezvousBytes go by
// rendezvous (the peer reads the sender's buffer in place); smaller ones,
// and every step under a fault injector, stay eager. The protocol must not
// change a bit, a byte count or a message count.
constexpr std::size_t kRvFloats =
    Communicator::kRendezvousBytes / sizeof(float);

/// Payload lengths, none a multiple of a world >= 2, whose ring chunks
/// (n / world rounded down or up) sit just below the rendezvous threshold,
/// straddle it (one chunk exactly at it, the rest one float short), and
/// sit at or above it.
std::vector<std::size_t> threshold_lengths(int world) {
  const auto p = static_cast<std::size_t>(world);
  return {p * (kRvFloats - 1) - 1, p * (kRvFloats - 1) + 1,
          p * kRvFloats + 1};
}

/// Integer-valued input: every summation order of a few ranks is exact, so
/// algorithms that associate differently must still agree byte for byte.
std::vector<float> exact_input(int rank, std::size_t n) {
  Rng rng(static_cast<std::uint64_t>(rank) * 131 + 17);
  std::vector<float> v(n);
  for (auto& x : v) {
    x = static_cast<float>(static_cast<int>(rng.uniform_int(2001)) - 1000);
  }
  return v;
}

bool same_bytes(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

/// Installs a fault injector whose plan injects nothing: the run's bytes
/// are the fault-free ones, but every ring step takes the eager path.
void force_eager(SimCluster& cluster) {
  cluster.set_fault_injector(
      std::make_shared<comm::FaultInjector>(comm::FaultPlan{}, cluster.world()));
}

/// Every rank's output of one allreduce of `input(rank)` on a fresh
/// `world`-rank cluster, eager-only when `eager`.
template <typename Input>
std::vector<std::vector<float>> allreduce_outputs(int world, AllreduceAlgo algo,
                                                  bool eager, Input input) {
  SimCluster cluster(world);
  if (eager) force_eager(cluster);
  std::vector<std::vector<float>> outs(static_cast<std::size_t>(world));
  std::mutex mu;
  cluster.run([&](Communicator& comm) {
    auto data = input(comm.rank());
    comm.allreduce_sum(data, algo);
    std::lock_guard lk(mu);
    outs[static_cast<std::size_t>(comm.rank())] = std::move(data);
  });
  return outs;
}

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

// Across the rendezvous threshold, on integer-valued inputs, the ring is
// byte-equal to the star on every rank, whichever protocol each chunk took
// (the straddling length mixes eager and rendezvous chunks in one call).
TEST_P(AllreduceStarBaseline, RingMatchesStarBytewiseAcrossRendezvousThreshold) {
  const int world = GetParam();
  for (const std::size_t n : threshold_lengths(world)) {
    const auto input = [n](int rank) { return exact_input(rank, n); };
    const auto star =
        allreduce_outputs(world, AllreduceAlgo::kStar, false, input);
    const auto ring =
        allreduce_outputs(world, AllreduceAlgo::kRing, false, input);
    for (int r = 0; r < world; ++r) {
      EXPECT_TRUE(same_bytes(ring[static_cast<std::size_t>(r)],
                             star[static_cast<std::size_t>(r)]))
          << "world=" << world << " n=" << n << " rank=" << r;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Worlds, AllreduceStarBaseline,
                         ::testing::Values(1, 2, 3, 4, 5, 7));

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
  // A small payload, then chunks below, straddling and above the
  // rendezvous threshold: the protocol must not change what is metered,
  // so each count also matches an eager-only run.
  std::vector<std::size_t> lengths{100};
  for (const std::size_t n : threshold_lengths(world)) lengths.push_back(n);
  for (const std::size_t n : lengths) {
    comm::TrafficStats by_protocol[2];
    for (const bool eager : {false, true}) {
      SimCluster cluster(world);
      if (eager) force_eager(cluster);
      cluster.run([n](Communicator& comm) {
        std::vector<float> data(n, 1.0f);
        comm.allreduce_sum(data, AllreduceAlgo::kRing);
      });
      by_protocol[eager ? 1 : 0] = cluster.total_traffic();
    }
    const auto& t = by_protocol[0];
    // Each rank sends 2*(P-1) chunk messages of ~n/P floats.
    EXPECT_EQ(t.messages, world * 2 * (world - 1)) << "n=" << n;
    EXPECT_EQ(t.bytes, 2 * (world - 1) * static_cast<std::int64_t>(n) * 4)
        << "n=" << n;
    EXPECT_EQ(t.messages, by_protocol[1].messages) << "n=" << n;
    EXPECT_EQ(t.bytes, by_protocol[1].bytes) << "n=" << n;
  }
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
  return allreduce_outputs(world, algo, false, [trial, n](int rank) {
    return property_input(trial, rank, n);
  });
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

TEST(AllreduceProperty, RingAcrossRendezvousThresholdMatchesEagerRingBytewise) {
  // Random-valued inputs, where association matters: the rendezvous ring
  // must give every rank exactly the bytes of the eager-only ring, because
  // each element gets the same axpy in the same step order.
  std::uint64_t trial = 900;
  for (const int world : {2, 3, 4, 5, 7}) {
    for (const std::size_t n : threshold_lengths(world)) {
      ++trial;
      SCOPED_TRACE(::testing::Message() << "world=" << world << " n=" << n);
      const auto input = [trial, n](int rank) {
        return property_input(trial, rank, n);
      };
      const auto shipped =
          allreduce_outputs(world, AllreduceAlgo::kRing, false, input);
      const auto eager =
          allreduce_outputs(world, AllreduceAlgo::kRing, true, input);
      for (int r = 0; r < world; ++r) {
        EXPECT_TRUE(same_bytes(shipped[static_cast<std::size_t>(r)],
                               eager[static_cast<std::size_t>(r)]))
            << "rank " << r;
        EXPECT_TRUE(same_bytes(shipped[static_cast<std::size_t>(r)],
                               shipped[0]))
            << "rank " << r << " disagrees with rank 0";
      }
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

TEST(SurvivorGroup, RingAcrossRendezvousThresholdMatchesStarBytewise) {
  // A group communicator translates virtual ranks to physical mailboxes on
  // the rendezvous path too: across the threshold, the survivors' ring is
  // byte-equal to their star (integer-valued inputs) and to a fixed world
  // of the survivor size.
  for (const auto& [world, dropped] :
       {std::pair{3, 0}, std::pair{5, 2}, std::pair{8, 7}}) {
    comm::MembershipView view;
    view.generation = 1;
    for (int r = 0; r < world; ++r) {
      if (r != dropped) view.ranks.push_back(r);
    }
    const int survivors = view.world();
    for (const std::size_t n : threshold_lengths(survivors)) {
      SCOPED_TRACE(::testing::Message() << "world=" << world << " dropped="
                                        << dropped << " n=" << n);
      auto group_run = [&](AllreduceAlgo algo) {
        std::vector<std::vector<float>> outs(
            static_cast<std::size_t>(survivors));
        std::mutex mu;
        SimCluster cluster(world);
        cluster.run([&](Communicator& comm) {
          if (comm.rank() == dropped) return;
          Communicator gc(cluster, comm.rank(), view, /*channel=*/0);
          auto data = exact_input(gc.rank(), n);
          gc.allreduce_sum(data, algo);
          std::lock_guard lk(mu);
          outs[static_cast<std::size_t>(gc.rank())] = std::move(data);
        });
        return outs;
      };
      const auto star = group_run(AllreduceAlgo::kStar);
      const auto ring = group_run(AllreduceAlgo::kRing);
      const auto fixed = allreduce_outputs(
          survivors, AllreduceAlgo::kRing, false,
          [n](int rank) { return exact_input(rank, n); });
      for (int v = 0; v < survivors; ++v) {
        const auto i = static_cast<std::size_t>(v);
        EXPECT_TRUE(same_bytes(ring[i], star[i])) << "virtual rank " << v;
        EXPECT_TRUE(same_bytes(ring[i], fixed[i])) << "virtual rank " << v;
      }
    }
  }
}

// ---------------- rendezvous under abort and timeout ----------------
//
// A rendezvous sender lends its buffer to a peer, so no exit path of a ring
// step may leave the view readable after the sender unwinds: it either
// withdraws the unread view from the peer's mailbox or waits for the
// peer's bounded read. Each rank's buffer lives on its own thread's heap
// and is freed by the unwind, so a late read is a use-after-free the
// sanitizer builds report. Chunks are 4 MB, well above the threshold.

constexpr std::size_t kBigChunkFloats = std::size_t{1} << 20;
static_assert(kBigChunkFloats * sizeof(float) >= Communicator::kRendezvousBytes);

/// What one rank's fn saw: "ok", "aborted", "timeout" or another what().
struct RankOutcomes {
  explicit RankOutcomes(int world) : seen(static_cast<std::size_t>(world)) {}
  std::mutex mu;
  std::vector<std::string> seen;

  /// Runs `body`, records how it ended, and rethrows.
  template <typename Body>
  void record(int rank, Body body) {
    std::string what = "ok";
    try {
      body();
    } catch (const comm::ClusterAborted&) {
      what = "aborted";
      set(rank, what);
      throw;
    } catch (const comm::CommTimeout&) {
      what = "timeout";
      set(rank, what);
      throw;
    } catch (const std::exception& e) {
      what = e.what();
      set(rank, what);
      throw;
    }
    set(rank, what);
  }
  void set(int rank, const std::string& what) {
    std::lock_guard lk(mu);
    seen[static_cast<std::size_t>(rank)] = what;
  }
};

class RendezvousFaults : public ::testing::TestWithParam<int> {};

TEST_P(RendezvousFaults, RankThrowingBesideTheRingUnwindsEveryPeer) {
  // Every rank finishes one rendezvous allreduce; then the last rank
  // throws while its peers are inside the next one, their views posted or
  // already read. They must all unwind with ClusterAborted long before
  // the receive deadline, and the run must rethrow the root cause.
  const int world = GetParam();
  const std::size_t n = kBigChunkFloats * static_cast<std::size_t>(world) + 1;
  SimCluster cluster(world);
  cluster.set_recv_timeout(20s);
  RankOutcomes outcomes(world);
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_THROW(cluster.run([&](Communicator& comm) {
    outcomes.record(comm.rank(), [&] {
      std::vector<float> data(n, 1.0f);
      comm.allreduce_sum(data, AllreduceAlgo::kRing);
      ASSERT_EQ(data[0], static_cast<float>(world));
      if (comm.rank() == world - 1) {
        std::this_thread::sleep_for(20ms);
        throw std::runtime_error("rank failed beside the ring");
      }
      comm.allreduce_sum(data, AllreduceAlgo::kRing);
    });
  }),
               std::runtime_error);
  EXPECT_LT(std::chrono::steady_clock::now() - t0, 10s);
  for (int r = 0; r < world - 1; ++r) {
    EXPECT_EQ(outcomes.seen[static_cast<std::size_t>(r)], "aborted")
        << "rank " << r;
  }
  EXPECT_EQ(outcomes.seen.back(), "rank failed beside the ring");
}

TEST_P(RendezvousFaults, RankTimingOutMidRingUnwindsEveryPeer) {
  // Rank 0 arrives far past the deadline, so a peer's ring step times out
  // mid-ring: inside its receive (its own view possibly already read by
  // its right neighbour) or while waiting for a view nobody takes. That
  // rank throws CommTimeout; every other rank unwinds with ClusterAborted.
  const int world = GetParam();
  const std::size_t n = kBigChunkFloats * static_cast<std::size_t>(world) + 3;
  SimCluster cluster(world);
  cluster.set_recv_timeout(300ms);
  RankOutcomes outcomes(world);
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_THROW(cluster.run([&](Communicator& comm) {
    outcomes.record(comm.rank(), [&] {
      std::vector<float> data(n, 1.0f);
      if (comm.rank() == 0) std::this_thread::sleep_for(900ms);
      comm.allreduce_sum(data, AllreduceAlgo::kRing);
    });
  }),
               comm::CommTimeout);
  EXPECT_LT(std::chrono::steady_clock::now() - t0, 10s);
  EXPECT_EQ(outcomes.seen[0], "aborted");
  int timeouts = 0;
  for (int r = 1; r < world; ++r) {
    const auto& what = outcomes.seen[static_cast<std::size_t>(r)];
    EXPECT_TRUE(what == "timeout" || what == "aborted")
        << "rank " << r << ": " << what;
    timeouts += what == "timeout" ? 1 : 0;
  }
  EXPECT_GE(timeouts, 1);
}

TEST_P(RendezvousFaults, SilentPeerTimesOutWithViewWithdrawn) {
  // The last rank never joins the allreduce. Its left neighbour's view
  // sits in its mailbox, reported by a timeout snapshot with the view's
  // element count; once every active rank has given up with CommTimeout
  // (caught here, so nothing aborts), the view is gone from the mailbox.
  const int world = GetParam();
  const int silent = world - 1;
  const std::size_t n = kBigChunkFloats * static_cast<std::size_t>(world) + 1;
  const std::size_t left_chunk =
      static_cast<std::size_t>(silent) * n / static_cast<std::size_t>(world) -
      static_cast<std::size_t>(silent - 1) * n /
          static_cast<std::size_t>(world);
  SimCluster cluster(world);
  cluster.set_recv_timeout(1000ms);
  std::atomic<int> gave_up{0};
  RankOutcomes outcomes(world);
  cluster.run([&](Communicator& comm) {
    if (comm.rank() != silent) {
      std::vector<float> data(n, 1.0f);
      try {
        comm.allreduce_sum(data, AllreduceAlgo::kRing);
        outcomes.set(comm.rank(), "ok");
      } catch (const comm::CommTimeout&) {
        outcomes.set(comm.rank(), "timeout");
      }
      gave_up.fetch_add(1);
      return;
    }
    // Polls its own queue through timeout snapshots (an unused tag).
    auto pending = [&] {
      try {
        comm.recv_for(0, 7, 10ms);
      } catch (const comm::CommTimeout& e) {
        return e.pending();
      }
      ADD_FAILURE() << "unexpected message on the probe tag";
      return std::vector<comm::PendingMessage>{};
    };
    std::vector<comm::PendingMessage> seen;
    for (int i = 0; i < 50 && seen.empty(); ++i) seen = pending();
    ASSERT_EQ(seen.size(), 1u);
    EXPECT_EQ(seen[0].src, silent - 1);
    EXPECT_EQ(seen[0].numel, left_chunk);
    while (gave_up.load() < world - 1) std::this_thread::sleep_for(5ms);
    EXPECT_TRUE(pending().empty()) << "view left in the silent rank's mailbox";
  });
  for (int r = 0; r < silent; ++r) {
    EXPECT_EQ(outcomes.seen[static_cast<std::size_t>(r)], "timeout")
        << "rank " << r;
  }
}

INSTANTIATE_TEST_SUITE_P(Worlds, RendezvousFaults, ::testing::Values(2, 4));

TEST(RendezvousThreshold, InjectorSeesEveryRingSendAtAnyChunkSize) {
  // Under a fault injector every ring step stays eager, so the injector's
  // (seed, rank, send index) sequence counts one send per chunk message,
  // rendezvous-sized or not.
  const int world = 4;
  for (const std::size_t n : {std::size_t{100}, kBigChunkFloats * world}) {
    SimCluster cluster(world);
    force_eager(cluster);
    cluster.run([n](Communicator& comm) {
      std::vector<float> data(n, 1.0f);
      comm.allreduce_sum(data, AllreduceAlgo::kRing);
    });
    EXPECT_EQ(cluster.total_faults().sends_seen, world * 2 * (world - 1))
        << "n=" << n;
  }
}

// ---------------- mailbox rendezvous mechanics ----------------

TEST(MailboxRendezvous, SnapshotReportsTheViewsElementCount) {
  comm::Mailbox home, peer;
  const std::vector<float> chunk(37, 1.0f);
  comm::Rendezvous rv{&home};
  peer.deliver(comm::Message{3, 11, {}, chunk, &rv});
  const auto pending = peer.snapshot();
  ASSERT_EQ(pending.size(), 1u);
  EXPECT_EQ(pending[0].src, 3);
  EXPECT_EQ(pending[0].tag, 11);
  EXPECT_EQ(pending[0].numel, 37u);
  EXPECT_TRUE(peer.withdraw(rv));
}

TEST(MailboxRendezvous, WithdrawRemovesOnlyAnUnreadView) {
  comm::Mailbox home, peer;
  const std::vector<float> chunk(5, 2.0f);
  comm::Rendezvous rv{&home};
  peer.deliver(comm::Message{0, 4, {}, chunk, &rv});
  EXPECT_TRUE(peer.withdraw(rv));
  EXPECT_TRUE(peer.empty());
  EXPECT_FALSE(peer.withdraw(rv));

  // Taken: withdraw fails, and the sender waits for complete().
  peer.deliver(comm::Message{0, 4, {}, chunk, &rv});
  comm::Message got;
  ASSERT_EQ(peer.take_for(0, 4, 10ms, got), comm::Mailbox::TakeStatus::kOk);
  EXPECT_EQ(got.data().size(), 5u);
  EXPECT_EQ(got.data().data(), chunk.data());
  EXPECT_FALSE(peer.withdraw(rv));
  EXPECT_EQ(home.wait_complete(rv, 10ms, true),
            comm::Mailbox::TakeStatus::kTimeout);
  got.rendezvous->home->complete(*got.rendezvous);
  EXPECT_EQ(home.wait_complete(rv, 10ms, true),
            comm::Mailbox::TakeStatus::kOk);
}

TEST(MailboxRendezvous, AbortWakesOnlyAnAbortableWait) {
  comm::Mailbox home;
  comm::Rendezvous rv{&home};
  home.abort();
  EXPECT_EQ(home.wait_complete(rv, comm::Mailbox::kNoTimeout, true),
            comm::Mailbox::TakeStatus::kAborted);
  // A non-abortable wait (a view already being read) outlasts the abort.
  EXPECT_EQ(home.wait_complete(rv, 10ms, false),
            comm::Mailbox::TakeStatus::kTimeout);
  home.complete(rv);
  EXPECT_EQ(home.wait_complete(rv, comm::Mailbox::kNoTimeout, false),
            comm::Mailbox::TakeStatus::kOk);
}

}  // namespace
}  // namespace minsgd

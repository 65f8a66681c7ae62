// Fault-injection layer and fault-tolerant training.
//
// Covers the fault taxonomy (drop -> CommTimeout, crash -> RankFailure,
// cooperative abort -> ClusterAborted on survivors), injector determinism,
// mailbox deadline semantics, cross-run mailbox hygiene, rank-error
// aggregation, and the headline recovery property: a run killed mid-training
// and restarted from its checkpoint finishes with weights bit-identical to
// the uninterrupted run.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>

#include "comm/cluster.hpp"
#include "comm/fault.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/postmortem.hpp"
#include "nn/conv.hpp"
#include "nn/dropout.hpp"
#include "nn/linear.hpp"
#include "nn/activation.hpp"
#include "nn/pool.hpp"
#include "optim/sgd.hpp"
#include "postmortem_path.hpp"
#include "train/fault_tolerant.hpp"
#include "train/trainer.hpp"

namespace minsgd {
namespace {

using comm::AllreduceAlgo;
using comm::ClusterAborted;
using comm::CommTimeout;
using comm::Communicator;
using comm::FaultInjector;
using comm::FaultPlan;
using comm::Mailbox;
using comm::Message;
using comm::RankFailure;
using comm::SimCluster;
using namespace std::chrono_literals;

// ---------------- mailbox deadline / abort semantics ----------------

TEST(MailboxTimeout, TimesOutOnMissingMessage) {
  Mailbox mb;
  Message out;
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_EQ(mb.take_for(0, 7, 30ms, out), Mailbox::TakeStatus::kTimeout);
  EXPECT_GE(std::chrono::steady_clock::now() - t0, 30ms);
}

TEST(MailboxTimeout, DeliveredMessageBeatsDeadline) {
  Mailbox mb;
  // minsgd-analyze: allow(thread-spawn): a raw producer thread races a real
  // delivery against the Mailbox::take_for deadline.
  std::thread producer([&] {
    std::this_thread::sleep_for(10ms);
    mb.deliver(Message{0, 7, {1.0f, 2.0f}});
  });
  Message out;
  EXPECT_EQ(mb.take_for(0, 7, 5000ms, out), Mailbox::TakeStatus::kOk);
  EXPECT_EQ(out.payload.size(), 2u);
  producer.join();
}

TEST(MailboxTimeout, AbortWakesWaiter) {
  Mailbox mb;
  // minsgd-analyze: allow(thread-spawn): a raw thread calls Mailbox::abort out
  // from under a waiter blocked in Mailbox::take_for.
  std::thread aborter([&] {
    std::this_thread::sleep_for(10ms);
    mb.abort();
  });
  Message out;
  EXPECT_EQ(mb.take_for(0, 7, Mailbox::kNoTimeout, out),
            Mailbox::TakeStatus::kAborted);
  aborter.join();
  // clear() re-arms the mailbox for the next run.
  mb.clear();
  mb.deliver(Message{0, 7, {3.0f}});
  EXPECT_EQ(mb.take_for(0, 7, 10ms, out), Mailbox::TakeStatus::kOk);
}

TEST(MailboxTimeout, SnapshotReportsPendingMessages) {
  Mailbox mb;
  mb.deliver(Message{2, 41, {1.0f, 2.0f, 3.0f}});
  const auto pending = mb.snapshot();
  ASSERT_EQ(pending.size(), 1u);
  EXPECT_EQ(pending[0].src, 2);
  EXPECT_EQ(pending[0].tag, 41);
  EXPECT_EQ(pending[0].numel, 3u);
}

// ---------------- injector mechanics ----------------

TEST(FaultInjector, RejectsBadPlans) {
  FaultPlan bad;
  bad.drop_prob = 1.5;
  EXPECT_THROW(FaultInjector(bad, 4), std::invalid_argument);
  bad = {};
  bad.crash_rank = 4;
  EXPECT_THROW(FaultInjector(bad, 4), std::invalid_argument);
  bad = {};
  bad.crash_at_send = -1;
  EXPECT_THROW(FaultInjector(bad, 4), std::invalid_argument);
  EXPECT_THROW(FaultInjector({}, 0), std::invalid_argument);
}

TEST(FaultInjector, DeterministicGivenSeed) {
  FaultPlan plan;
  plan.seed = 99;
  plan.drop_prob = 0.3;
  plan.duplicate_prob = 0.2;
  auto run_once = [&] {
    FaultInjector inj(plan, 2);
    std::vector<int> actions;
    std::vector<float> payload{1.0f, 2.0f};
    for (int i = 0; i < 64; ++i) {
      actions.push_back(static_cast<int>(inj.on_send(0, 1, i, payload)));
    }
    return actions;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(FaultInjector, DropCausesCommTimeoutWithDiagnostics) {
  SimCluster cluster(2);
  FaultPlan plan;
  plan.drop_prob = 1.0;
  cluster.set_fault_injector(std::make_shared<FaultInjector>(plan, 2));
  cluster.set_recv_timeout(50ms);
  try {
    cluster.run([](Communicator& comm) {
      if (comm.rank() == 0) comm.send(1, 7, std::vector<float>{1.0f});
      else comm.recv(0, 7);
    });
    FAIL() << "expected CommTimeout";
  } catch (const CommTimeout& e) {
    EXPECT_EQ(e.rank(), 1);
    EXPECT_EQ(e.peer(), 0);
    EXPECT_EQ(e.tag(), 7);
    EXPECT_NE(std::string(e.what()).find("tag 7"), std::string::npos);
  }
  EXPECT_EQ(cluster.rank_faults(0).dropped, 1);
  EXPECT_EQ(cluster.total_faults().dropped, 1);
  // The lost message still hit the wire: traffic counts sends, not arrivals.
  EXPECT_EQ(cluster.rank_traffic(0).messages, 1);
}

TEST(FaultInjector, TimeoutMessageNamesUnmatchedQueueEntries) {
  SimCluster cluster(2);
  cluster.set_recv_timeout(50ms);
  try {
    cluster.run([](Communicator& comm) {
      if (comm.rank() == 0) {
        comm.send(1, 5, std::vector<float>{1.0f, 2.0f});
      } else {
        comm.recv(0, 6);  // wrong tag: the tag-5 message sits unmatched
      }
    });
    FAIL() << "expected CommTimeout";
  } catch (const CommTimeout& e) {
    ASSERT_EQ(e.pending().size(), 1u);
    EXPECT_EQ(e.pending()[0].tag, 5);
    EXPECT_NE(std::string(e.what()).find("tag 5"), std::string::npos);
  }
}

TEST(FaultInjector, CorruptFlipsSignBitOnce) {
  SimCluster cluster(2);
  FaultPlan plan;
  plan.corrupt_prob = 1.0;
  cluster.set_fault_injector(std::make_shared<FaultInjector>(plan, 2));
  cluster.run([](Communicator& comm) {
    if (comm.rank() == 0) {
      comm.send(1, 0, std::vector<float>{1.0f, 2.0f, 3.0f});
    } else {
      const auto got = comm.recv(0, 0);
      int flipped = 0;
      const std::vector<float> sent{1.0f, 2.0f, 3.0f};
      for (std::size_t i = 0; i < got.size(); ++i) {
        if (got[i] == -sent[i]) ++flipped;
        else EXPECT_EQ(got[i], sent[i]);
      }
      EXPECT_EQ(flipped, 1);
    }
  });
  EXPECT_EQ(cluster.rank_faults(0).corrupted, 1);
}

TEST(FaultInjector, DuplicateDeliversTwiceAndMeterSeesBoth) {
  SimCluster cluster(2);
  FaultPlan plan;
  plan.duplicate_prob = 1.0;
  cluster.set_fault_injector(std::make_shared<FaultInjector>(plan, 2));
  cluster.run([](Communicator& comm) {
    if (comm.rank() == 0) {
      comm.send(1, 0, std::vector<float>{4.0f});
    } else {
      // Both copies are receivable on the same (src, tag) channel.
      EXPECT_EQ(comm.recv(0, 0)[0], 4.0f);
      EXPECT_EQ(comm.recv(0, 0)[0], 4.0f);
    }
  });
  EXPECT_EQ(cluster.rank_faults(0).duplicated, 1);
  EXPECT_EQ(cluster.rank_traffic(0).messages, 2);
}

TEST(FaultInjector, StragglerDelayStallsTheSend) {
  SimCluster cluster(2);
  FaultPlan plan;
  plan.delay_prob = 1.0;
  plan.delay = 40ms;
  cluster.set_fault_injector(std::make_shared<FaultInjector>(plan, 2));
  const auto t0 = std::chrono::steady_clock::now();
  cluster.run([](Communicator& comm) {
    if (comm.rank() == 0) comm.send(1, 0, std::vector<float>{1.0f});
    else comm.recv(0, 0);
  });
  EXPECT_GE(std::chrono::steady_clock::now() - t0, 40ms);
  EXPECT_EQ(cluster.rank_faults(0).delayed, 1);
}

// ---------------- crash + cooperative abort ----------------

TEST(RankCrash, CollectiveWithDeadPeerUnwindsEveryRank) {
  // The acceptance scenario: one rank dies inside an allreduce; every
  // surviving rank must unwind promptly instead of hanging the join.
  const int world = 4;
  SimCluster cluster(world);
  FaultPlan plan;
  plan.crash_rank = 2;
  plan.crash_at_send = 1;  // die on the second send of the collective
  auto injector = std::make_shared<FaultInjector>(plan, world);
  cluster.set_fault_injector(injector);
  cluster.set_recv_timeout(5000ms);
  const auto t0 = std::chrono::steady_clock::now();
  try {
    cluster.run([](Communicator& comm) {
      std::vector<float> data(64, static_cast<float>(comm.rank()));
      comm.allreduce_sum(data, AllreduceAlgo::kRing);
    });
    FAIL() << "expected RankFailure";
  } catch (const RankFailure& e) {
    EXPECT_EQ(e.rank(), 2);
    // The aggregated message lists the aborted survivors too.
    EXPECT_NE(std::string(e.what()).find("aborted"), std::string::npos);
  }
  // Cooperative abort, not timeout expiry: survivors unwound quickly.
  EXPECT_LT(std::chrono::steady_clock::now() - t0, 4000ms);
  EXPECT_EQ(injector->total().crashes, 1);
  EXPECT_FALSE(injector->crash_pending());
}

TEST(RankCrash, EveryAllreduceAlgoUnwinds) {
  for (const auto algo :
       {AllreduceAlgo::kStar, AllreduceAlgo::kRing, AllreduceAlgo::kTree,
        AllreduceAlgo::kRecursiveHalving}) {
    SimCluster cluster(5);
    FaultPlan plan;
    plan.crash_rank = 1;
    plan.crash_at_send = 0;
    cluster.set_fault_injector(std::make_shared<FaultInjector>(plan, 5));
    cluster.set_recv_timeout(5000ms);
    EXPECT_THROW(cluster.run([&](Communicator& comm) {
      std::vector<float> data(257, 1.0f);
      comm.allreduce_sum(data, algo);
    }),
                 RankFailure)
        << comm::to_string(algo);
  }
}

TEST(CooperativeAbort, BlockedBarrierUnwinds) {
  SimCluster cluster(3);
  EXPECT_THROW(cluster.run([](Communicator& comm) {
    if (comm.rank() == 0) {
      throw RankFailure(0, "RankFailure: rank 0 simulated death");
    }
    comm.barrier();  // would deadlock forever without the abort
  }),
               RankFailure);
  EXPECT_TRUE(cluster.aborted());
  EXPECT_NE(cluster.abort_reason().find("rank 0"), std::string::npos);
}

TEST(CooperativeAbort, BlockedRecvUnwindsWithoutTimeout) {
  // No recv deadline configured: only the cooperative abort can free the
  // blocked rank.
  SimCluster cluster(2);
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_THROW(cluster.run([](Communicator& comm) {
    if (comm.rank() == 0) throw std::runtime_error("boom");
    comm.recv(0, 123);  // never sent
  }),
               std::runtime_error);
  EXPECT_LT(std::chrono::steady_clock::now() - t0, 4000ms);
}

TEST(CooperativeAbort, SendAfterAbortThrows) {
  SimCluster cluster(2);
  std::atomic<bool> rank1_done{false};
  EXPECT_THROW(cluster.run([&](Communicator& comm) {
    if (comm.rank() == 0) throw std::runtime_error("boom");
    // Busy-wait until the abort lands, then attempt to send.
    while (!cluster.aborted()) std::this_thread::sleep_for(1ms);
    try {
      comm.send(0, 0, std::vector<float>{1.0f});
    } catch (const ClusterAborted&) {
      rank1_done = true;
      throw;
    }
  }),
               std::runtime_error);
  EXPECT_TRUE(rank1_done.load());
}

// ---------------- run(): drain + aggregation (satellites) ----------------

TEST(ClusterHygiene, StaleMessagesFromAbortedRunAreDrained) {
  SimCluster cluster(2);
  // Run 1 aborts with an undelivered message sitting in rank 1's mailbox.
  EXPECT_THROW(cluster.run([](Communicator& comm) {
    if (comm.rank() == 0) {
      comm.send(1, 7, std::vector<float>{13.0f});
      throw std::runtime_error("die after send");
    }
    comm.recv(0, 99);  // blocks until aborted
  }),
               std::runtime_error);
  // Run 2 must NOT receive run 1's stale tag-7 message.
  cluster.set_recv_timeout(50ms);
  EXPECT_THROW(cluster.run([](Communicator& comm) {
    if (comm.rank() == 1) comm.recv(0, 7);
  }),
               CommTimeout);
  // And a fully clean exchange works.
  cluster.run([](Communicator& comm) {
    if (comm.rank() == 0) comm.send(1, 7, std::vector<float>{2.0f});
    else EXPECT_EQ(comm.recv(0, 7)[0], 2.0f);
  });
}

TEST(ClusterHygiene, AggregatesAllRankErrorsIntoMessage) {
  SimCluster cluster(3);
  try {
    cluster.run([](Communicator& comm) {
      if (comm.rank() == 0) throw std::invalid_argument("alpha failure");
      if (comm.rank() == 2) throw std::runtime_error("gamma failure");
      comm.barrier();  // rank 1 becomes an abort victim
    });
    FAIL() << "expected a throw";
  } catch (const std::invalid_argument& e) {
    // Type comes from the first root cause by rank order; the message
    // carries every rank's error.
    const std::string what = e.what();
    EXPECT_NE(what.find("alpha failure"), std::string::npos);
    EXPECT_NE(what.find("gamma failure"), std::string::npos);
    EXPECT_NE(what.find("rank 0"), std::string::npos);
    EXPECT_NE(what.find("rank 2"), std::string::npos);
  }
}

TEST(ClusterHygiene, SingleFailureRethrowsOriginalException) {
  SimCluster cluster(1);
  try {
    cluster.run([](Communicator&) { throw std::out_of_range("solo"); });
    FAIL() << "expected a throw";
  } catch (const std::out_of_range& e) {
    EXPECT_STREQ(e.what(), "solo");
  }
}

// ---------------- fault-tolerant training ----------------

data::SynthConfig tiny_data_cfg() {
  data::SynthConfig c;
  c.classes = 4;
  c.resolution = 12;
  c.train_size = 256;
  c.test_size = 128;
  c.noise = 0.4f;
  c.distractor = 0.3f;
  c.seed = 5;
  return c;
}

// Deterministic model (no dropout, no batch norm), as required for exact
// sequential-consistency comparisons.
std::unique_ptr<nn::Network> det_model() {
  auto net = std::make_unique<nn::Network>("det");
  net->emplace<nn::Conv2d>(3, 8, 3, 1, 1);
  net->emplace<nn::ReLU>();
  net->emplace<nn::MaxPool2d>(2, 2);
  net->emplace<nn::Flatten>();
  net->emplace<nn::Linear>(8 * 6 * 6, 4);
  return net;
}

train::FaultTolerantOptions ft_options(const std::string& tag) {
  train::FaultTolerantOptions o;
  o.train.global_batch = 32;
  o.train.epochs = 3;
  o.train.eval_every = 8;  // skip most evals: weights are what we compare
  o.checkpoint_every = 3;
  o.checkpoint_path = ::testing::TempDir() + "/ft_" + tag + ".ckpt";
  o.recv_timeout = 5000ms;
  return o;
}

std::function<std::unique_ptr<optim::Optimizer>()> sgd_factory() {
  return [] {
    return std::make_unique<optim::Sgd>(
        optim::SgdConfig{.momentum = 0.9, .weight_decay = 0.0005});
  };
}

TEST(FaultTolerantTrain, NoFaultRunIsSequentiallyConsistent) {
  // world=2 must match world=1 up to float summation order (the sharded
  // gradient sums reduce in a different order, same tolerance-based check
  // the plain sync trainer uses), and the checkpoint cadence must not
  // perturb training at all: writing a checkpoint is observationally free.
  data::SyntheticImageNet ds(tiny_data_cfg());
  optim::ConstantLr lr(0.02);
  const auto two = train::train_sync_fault_tolerant(
      det_model, sgd_factory(), lr, ds, ft_options("w2"), 2);
  const auto one = train::train_sync_fault_tolerant(
      det_model, sgd_factory(), lr, ds, ft_options("w1"), 1);
  EXPECT_EQ(two.restarts, 0);
  ASSERT_FALSE(two.final_weights.empty());
  ASSERT_EQ(two.final_weights.size(), one.final_weights.size());
  for (std::size_t i = 0; i < two.final_weights.size(); ++i) {
    ASSERT_NEAR(two.final_weights[i], one.final_weights[i], 2e-3) << "i=" << i;
  }
  EXPECT_GT(two.checkpoints_written, 0);

  auto rare = ft_options("w2rare");
  rare.checkpoint_every = 1000;  // never fires within this run
  const auto two_rare = train::train_sync_fault_tolerant(
      det_model, sgd_factory(), lr, ds, rare, 2);
  EXPECT_EQ(two_rare.checkpoints_written, 0);
  EXPECT_EQ(two.final_weights, two_rare.final_weights);  // bit-identical
}

TEST(FaultTolerantTrain, CrashRecoveryYieldsBitIdenticalWeights) {
  // The headline integration property: kill a rank mid-training via the
  // injector, restart from the checkpoint, and finish with final weights
  // exactly equal to the fault-free run's.
  data::SyntheticImageNet ds(tiny_data_cfg());
  optim::ConstantLr lr(0.02);
  const int world = 2;

  const auto clean = train::train_sync_fault_tolerant(
      det_model, sgd_factory(), lr, ds, ft_options("clean"), world);
  ASSERT_EQ(clean.restarts, 0);
  ASSERT_FALSE(clean.final_weights.empty());

  FaultPlan plan;
  plan.crash_rank = 1;
  // Each iteration sends a handful of messages per rank; ~tens of sends in,
  // the run is mid-epoch and past at least one checkpoint.
  plan.crash_at_send = 40;
  auto injector = std::make_shared<FaultInjector>(plan, world);
  const auto faulty = train::train_sync_fault_tolerant(
      det_model, sgd_factory(), lr, ds, ft_options("crash"), world, injector);

  EXPECT_EQ(faulty.restarts, 1);
  EXPECT_EQ(faulty.faults.crashes, 1);
  ASSERT_FALSE(faulty.final_weights.empty());
  EXPECT_EQ(faulty.final_weights, clean.final_weights);
  EXPECT_EQ(faulty.iterations, clean.iterations);
}

TEST(FaultTolerantTrain, PublishesRunMetricsSummedOverAttempts) {
  // The fault-tolerant driver persists the same run metrics as the fixed
  // trainer, and a restarted run's counters cover every attempt, the
  // crashed one included.
  data::SyntheticImageNet ds(tiny_data_cfg());
  optim::ConstantLr lr(0.02);
  FaultPlan plan;
  plan.crash_rank = 1;
  plan.crash_at_send = 40;
  auto injector = std::make_shared<FaultInjector>(plan, 2);
  auto& reg = obs::metrics();
  const auto bytes = reg.counter("train.traffic.bytes").value();
  const auto messages = reg.counter("train.traffic.messages").value();
  const auto total_ns = reg.counter("train.allreduce.total_ns").value();
  const auto r = train::train_sync_fault_tolerant(
      det_model, sgd_factory(), lr, ds, ft_options("metrics"), 2, injector);
  ASSERT_EQ(r.restarts, 1);
  EXPECT_EQ(reg.counter("train.traffic.bytes").value() - bytes,
            r.traffic.bytes);
  EXPECT_EQ(reg.counter("train.traffic.messages").value() - messages,
            r.traffic.messages);
  EXPECT_GT(reg.counter("train.allreduce.total_ns").value(), total_ns);
}

TEST(FaultTolerantTrain, CrashRecoveryIsExactWithDropout) {
  // Dropout layers own private mask streams; the checkpoint must restore
  // them or the resumed run draws different masks and drifts from the
  // uninterrupted one (regression test for exactly that bug).
  auto dropout_model = [] {
    auto net = std::make_unique<nn::Network>("drop");
    net->emplace<nn::Conv2d>(3, 8, 3, 1, 1);
    net->emplace<nn::ReLU>();
    net->emplace<nn::MaxPool2d>(2, 2);
    net->emplace<nn::Flatten>();
    net->emplace<nn::Dropout>(0.25f);
    net->emplace<nn::Linear>(8 * 6 * 6, 4);
    return net;
  };
  data::SyntheticImageNet ds(tiny_data_cfg());
  optim::ConstantLr lr(0.02);
  const auto clean = train::train_sync_fault_tolerant(
      dropout_model, sgd_factory(), lr, ds, ft_options("dclean"), 2);
  FaultPlan plan;
  plan.crash_rank = 0;
  plan.crash_at_send = 40;
  auto injector = std::make_shared<FaultInjector>(plan, 2);
  const auto faulty = train::train_sync_fault_tolerant(
      dropout_model, sgd_factory(), lr, ds, ft_options("dcrash"), 2, injector);
  EXPECT_EQ(faulty.restarts, 1);
  EXPECT_EQ(faulty.final_weights, clean.final_weights);
}

TEST(FaultTolerantTrain, StragglersSlowButDoNotChangeResults) {
  data::SyntheticImageNet ds(tiny_data_cfg());
  optim::ConstantLr lr(0.02);
  const auto clean = train::train_sync_fault_tolerant(
      det_model, sgd_factory(), lr, ds, ft_options("fast"), 2);
  FaultPlan plan;
  plan.delay_prob = 0.02;
  plan.delay = 2ms;
  auto injector = std::make_shared<FaultInjector>(plan, 2);
  const auto slow = train::train_sync_fault_tolerant(
      det_model, sgd_factory(), lr, ds, ft_options("slow"), 2, injector);
  EXPECT_GT(slow.faults.delayed, 0);
  EXPECT_EQ(slow.restarts, 0);
  EXPECT_EQ(slow.final_weights, clean.final_weights);
}

TEST(FaultTolerantTrain, ExhaustedRestartBudgetRethrows) {
  data::SyntheticImageNet ds(tiny_data_cfg());
  optim::ConstantLr lr(0.02);
  auto o = ft_options("budget");
  o.max_restarts = 0;
  FaultPlan plan;
  plan.crash_rank = 0;
  plan.crash_at_send = 5;
  auto injector = std::make_shared<FaultInjector>(plan, 2);
  EXPECT_THROW(train::train_sync_fault_tolerant(det_model, sgd_factory(), lr,
                                                ds, o, 2, injector),
               RankFailure);
}

TEST(FaultTolerantTrain, RejectsBadOptions) {
  data::SyntheticImageNet ds(tiny_data_cfg());
  optim::ConstantLr lr(0.02);
  auto o = ft_options("bad");
  o.checkpoint_every = 0;
  EXPECT_THROW(
      train::train_sync_fault_tolerant(det_model, sgd_factory(), lr, ds, o, 2),
      std::invalid_argument);
  o = ft_options("bad2");
  o.train.global_batch = 30;
  EXPECT_THROW(
      train::train_sync_fault_tolerant(det_model, sgd_factory(), lr, ds, o, 4),
      std::invalid_argument);
}

TEST(FaultTolerantTrainDeath, NegativeRestartBudgetTripsCheck) {
  // A negative budget is a programming error, not recoverable input:
  // validate() converts it to a MINSGD_CHECK abort instead of a throw.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  auto o = ft_options("neg");
  o.max_restarts = -1;
  EXPECT_DEATH(o.validate(), "max_restarts");
}

// ---------------- postmortem black box ----------------

using testing::ScopedPostmortemPath;

TEST(Postmortem, StragglerStallIsCountedAndValidated) {
  FaultPlan bad;
  bad.straggler_rank = 4;
  EXPECT_THROW(FaultInjector(bad, 4), std::invalid_argument);
  bad = {};
  bad.straggler_rank = 0;
  bad.straggler_stall = std::chrono::milliseconds(-1);
  EXPECT_THROW(FaultInjector(bad, 4), std::invalid_argument);

  SimCluster cluster(2);
  FaultPlan plan;
  plan.straggler_rank = 1;
  plan.straggler_stall = std::chrono::milliseconds(1);
  auto injector = std::make_shared<FaultInjector>(plan, 2);
  cluster.set_fault_injector(injector);
  cluster.run([](Communicator& comm) {
    std::vector<float> data(8, 1.0f);
    for (int i = 0; i < 3; ++i) comm.allreduce_sum(data);
  });
  // One stall per outermost collective entry, straggler rank only.
  EXPECT_EQ(injector->total().stalls, 3);
}

// The acceptance scenario of the observability layer: a fault-injected
// crash at world=4 with a compute-side straggler leaves one merged
// postmortem.json whose cross-rank analysis joins the collectives and
// names the injected-delay rank.
TEST(Postmortem, CrashDumpJoinsRanksAndNamesInjectedStraggler) {
  ScopedPostmortemPath dump("pm_crash_world4.json");
  const int world = 4;
  SimCluster cluster(world);
  FaultPlan plan;
  plan.straggler_rank = 2;
  plan.straggler_stall = std::chrono::milliseconds(2);
  plan.crash_rank = 1;
  // Ring allreduce sends 2*(world-1) messages per rank: die ~30 steps in,
  // so the one crash-truncated group is well under the 5% unmatched budget.
  plan.crash_at_send = 30 * 2 * (world - 1);
  cluster.set_fault_injector(std::make_shared<FaultInjector>(plan, world));
  cluster.set_recv_timeout(10000ms);
  EXPECT_THROW(cluster.run([](Communicator& comm) {
    std::vector<float> grad(64, 1.0f);
    for (int it = 0;; ++it) {
      comm.allreduce_sum(grad, AllreduceAlgo::kRing);
      MINSGD_FLIGHT(obs::FlightKind::kStep, obs::FlightOp::kNone, 0, 0, 0, 0,
                    it);
    }
  }),
               RankFailure);

  // One merged dump, written while the failure was unwinding.
  const obs::Postmortem pm = obs::read_postmortem_file(dump.path);
  EXPECT_EQ(pm.info.world, world);
  EXPECT_FALSE(pm.info.reason.empty());
  EXPECT_EQ(static_cast<int>(pm.info.rank_errors.size()), world);
  EXPECT_FALSE(pm.events.empty());

  const obs::FlightAnalysis a = obs::analyze_flight(pm.events, world);
  // >= 95% of collective groups must join across all 4 ranks — only the
  // final crash-truncated step can be incomplete.
  EXPECT_GE(a.groups, 10);
  EXPECT_GE(a.match_rate, 0.95);
  // Attribution: the injected straggler is charged the arrival lag.
  EXPECT_EQ(a.straggler_rank, 2);
  EXPECT_GT(a.straggler_lag_ns, 0);
  // The injected faults are visible in the timeline: rank 2's stalls and
  // rank 1's crash marker.
  EXPECT_GT(a.fault_events, 0);
  EXPECT_GT(a.crash_events, 0);
}

TEST(Postmortem, CommTimeoutDumpRecordsTheTimeout) {
  ScopedPostmortemPath dump("pm_timeout.json");
  SimCluster cluster(2);
  FaultPlan plan;
  plan.drop_prob = 1.0;
  cluster.set_fault_injector(std::make_shared<FaultInjector>(plan, 2));
  cluster.set_recv_timeout(50ms);
  EXPECT_THROW(cluster.run([](Communicator& comm) {
    std::vector<float> data(8, 1.0f);
    comm.allreduce_sum(data);
  }),
               CommTimeout);

  const obs::Postmortem pm = obs::read_postmortem_file(dump.path);
  EXPECT_EQ(pm.info.world, 2);
  bool saw_timeout = false;
  bool saw_begin = false;
  for (const auto& e : pm.events) {
    saw_timeout |= e.kind == obs::FlightKind::kFault &&
                   e.op == obs::FlightOp::kTimeout;
    saw_begin |= e.kind == obs::FlightKind::kCollBegin;
  }
  EXPECT_TRUE(saw_timeout);
  EXPECT_TRUE(saw_begin);
}

}  // namespace
}  // namespace minsgd

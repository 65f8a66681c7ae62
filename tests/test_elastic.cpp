// Elastic data-parallel training: membership, determinism, and soak.
//
// Covers ElasticOptions and coordinator view validation (CHECK death
// tests), the coordinator's commit decisions (a scheduled event never
// commits before its step; nothing commits after a member finished), the
// two determinism contracts from train/elastic.hpp — a
// never-resized elastic run is bit-equal to the fixed sync trainer, and a
// shrink at step k is bit-equal to a fixed-(world-1) run resumed from the
// pre-shrink state — and the headline robustness property: a shrink ->
// grow -> shrink schedule under injected message loss completes without a
// full-cluster restart and lands on the identical trajectory, including
// when the loss hits the joiner's admission state broadcast.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "comm/fault.hpp"
#include "comm/membership.hpp"
#include "nn/activation.hpp"
#include "nn/conv.hpp"
#include "nn/linear.hpp"
#include "nn/pool.hpp"
#include "obs/trace.hpp"
#include "optim/schedule.hpp"
#include "optim/sgd.hpp"
#include "train/elastic.hpp"
#include "train/trainer.hpp"
#include "postmortem_path.hpp"

namespace minsgd {
namespace {

using namespace std::chrono_literals;
using comm::ElasticEvent;
using comm::ElasticEventKind;

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
// bitwise trajectory comparisons.
std::unique_ptr<nn::Network> det_model() {
  auto net = std::make_unique<nn::Network>("det");
  net->emplace<nn::Conv2d>(3, 8, 3, 1, 1);
  net->emplace<nn::ReLU>();
  net->emplace<nn::MaxPool2d>(2, 2);
  net->emplace<nn::Flatten>();
  net->emplace<nn::Linear>(8 * 6 * 6, 4);
  return net;
}

std::function<std::unique_ptr<optim::Optimizer>()> sgd_factory() {
  return [] {
    return std::make_unique<optim::Sgd>(
        optim::SgdConfig{.momentum = 0.9, .weight_decay = 0.0005});
  };
}

train::ElasticOptions elastic_options() {
  train::ElasticOptions o;
  o.local_batch = 16;
  o.initial_world = 3;
  o.max_world = 3;
  o.total_iterations = 24;
  o.train.eval_every = 8;  // weights are what the tests compare
  o.train.detect_divergence = false;  // keep trajectories unconditional
  return o;
}

// ---------------- option validation ----------------

TEST(ElasticOptionsDeath, ChecksFireOnBadFields) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  auto o = elastic_options();
  o.local_batch = 0;
  EXPECT_DEATH(o.validate(), "local_batch");
  o = elastic_options();
  o.max_world = o.initial_world - 1;
  EXPECT_DEATH(o.validate(), "max_world");
  o = elastic_options();
  o.events.push_back({4, ElasticEventKind::kLeave, o.max_world});
  EXPECT_DEATH(o.validate(), "event rank");
  o = elastic_options();
  o.events.push_back({-1, ElasticEventKind::kJoin, 0});
  EXPECT_DEATH(o.validate(), "at_iter");
}

TEST(ElasticOptionsDeath, CoordinatorRejectsMalformedView) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // The CHECK failure dumps a postmortem from the dying child; a fixed name
  // lets this (parent) process remove what the child left behind.
  testing::ScopedPostmortemPath dump("pm_malformed_view.json");
  comm::SimCluster cluster(2);
  comm::MembershipView empty;
  EXPECT_DEATH(
      comm::ElasticCoordinator(cluster, empty, {}),
      "empty");
  comm::MembershipView unsorted;
  unsorted.ranks = {1, 0};
  EXPECT_DEATH(
      comm::ElasticCoordinator(cluster, unsorted, {}),
      "ascending");
}

// ---------------- coordinator decisions ----------------
//
// The coordinator commits in shared state and sends no message, so these
// drive it directly: each rank thread reports a step count and reads back
// the committed view.

TEST(ElasticCoordinator, ScheduledLeaveNeverCommitsBeforeItsStep) {
  // Rank 1 applied step 6 and is due to leave there; ranks 0 and 2 lost the
  // step's last message and hold 5. Rank 1 opens the epoch first. The leave
  // must wait until every state-bearing member has reached 6: the first
  // commit re-forms all three at 6 (rank 1's state heals the others), the
  // second applies the leave at 6. Committing world 2 at 5 would re-run
  // step 6 at the smaller world and leave the clean schedule.
  comm::SimCluster cluster(3);
  comm::ElasticCoordinator coord(cluster, comm::MembershipView::initial(3),
                                 {{6, ElasticEventKind::kLeave, 1}});
  const std::int64_t steps[3] = {5, 6, 5};
  std::vector<comm::ReconfigOutcome> first(3), second(3);
  cluster.run([&](comm::Communicator& c) {
    const int r = c.rank();
    if (r != 1) {
      while (!coord.reconfig_due(0)) std::this_thread::yield();
    }
    first[static_cast<std::size_t>(r)] = coord.reconfigure(r, steps[r]);
    second[static_cast<std::size_t>(r)] = coord.reconfigure(r, 6);
  });
  for (int r = 0; r < 3; ++r) {
    const auto& oc = first[static_cast<std::size_t>(r)];
    EXPECT_EQ(oc.role, comm::MemberRole::kMember) << "rank " << r;
    EXPECT_EQ(oc.view.world(), 3) << "rank " << r;
    EXPECT_EQ(oc.resume_iter, 6) << "rank " << r;
    EXPECT_EQ(oc.is_root, r == 1) << "rank " << r;
  }
  EXPECT_EQ(second[1].role, comm::MemberRole::kStandby);
  for (int r : {0, 2}) {
    const auto& oc = second[static_cast<std::size_t>(r)];
    EXPECT_EQ(oc.role, comm::MemberRole::kMember) << "rank " << r;
    EXPECT_EQ(oc.view.ranks, (std::vector<int>{0, 2})) << "rank " << r;
    EXPECT_EQ(oc.resume_iter, 6) << "rank " << r;
  }
  const auto recs = coord.records();
  ASSERT_EQ(recs.size(), 2u);
  EXPECT_EQ(recs[0].generation, 1);
  EXPECT_EQ(recs[0].at_iter, 6);
  EXPECT_EQ(recs[0].world, 3);
  EXPECT_EQ(recs[1].generation, 2);
  EXPECT_EQ(recs[1].at_iter, 6);
  EXPECT_EQ(recs[1].world, 2);
}

TEST(ElasticCoordinator, ReconfigureAfterFinishCommitsNothing) {
  // A member applied the last step and finished; its peer lost the step's
  // final message and re-forms. The run's result is already fixed, so the
  // straggler parks instead of committing a view that would train alone.
  comm::SimCluster cluster(2);
  comm::ElasticCoordinator coord(cluster, comm::MembershipView::initial(2),
                                 {});
  EXPECT_TRUE(coord.finish());
  const auto oc = coord.reconfigure(1, 23);
  EXPECT_EQ(oc.role, comm::MemberRole::kStandby);
  EXPECT_EQ(coord.reconfigurations(), 0);
  EXPECT_FALSE(coord.run_failed());
  EXPECT_FALSE(coord.finish());  // only the first finisher records
  EXPECT_FALSE(coord.await_admission(1));
}

// ---------------- determinism contracts ----------------

TEST(ElasticTrain, NoEventsBitMatchesFixedSyncTrainer) {
  // A run that never resizes must be indistinguishable from the fixed
  // trainer at the same geometry: same shards, same LR (ElasticLrScale
  // returns the base schedule verbatim at the base batch), same update
  // sequence, so bit-identical final weights.
  data::SyntheticImageNet ds(tiny_data_cfg());
  optim::StepLr lr(0.02, 7, 0.5);

  auto eo = elastic_options();
  eo.initial_world = 2;
  eo.max_world = 2;
  eo.total_iterations = 0;  // derive from epochs, like the fixed trainer
  eo.train.epochs = 2;
  const auto elastic =
      train::train_sync_elastic(det_model, sgd_factory(), lr, ds, eo);

  train::TrainOptions to = eo.train;
  to.global_batch = eo.local_batch * 2;
  const auto fixed = train::train_sync_data_parallel(
      det_model, sgd_factory(), lr, ds, to, 2, comm::AllreduceAlgo::kRing);

  EXPECT_EQ(elastic.reconfigurations, 0);
  ASSERT_FALSE(elastic.final_weights.empty());
  EXPECT_EQ(elastic.final_weights, fixed.final_weights);
  EXPECT_EQ(elastic.iterations, fixed.iterations);
}

TEST(ElasticTrain, NoEventsOverlapPathBitMatchesFixedOverlapTrainer) {
  // With overlap on, buckets are layer-aligned, so the reference is the
  // fixed trainer at the same overlap configuration (not the serial path,
  // whose fixed-stride buckets reduce in a different grouping).
  data::SyntheticImageNet ds(tiny_data_cfg());
  optim::ConstantLr lr(0.02);
  auto eo = elastic_options();
  eo.initial_world = 2;
  eo.max_world = 2;
  eo.total_iterations = 0;
  eo.train.epochs = 2;
  eo.train.overlap_comm = true;
  eo.train.bucket_bytes = 4096;
  const auto elastic =
      train::train_sync_elastic(det_model, sgd_factory(), lr, ds, eo);

  train::TrainOptions to = eo.train;
  to.global_batch = eo.local_batch * 2;
  const auto fixed = train::train_sync_data_parallel(
      det_model, sgd_factory(), lr, ds, to, 2, comm::AllreduceAlgo::kRing);
  ASSERT_FALSE(elastic.final_weights.empty());
  EXPECT_EQ(elastic.final_weights, fixed.final_weights);
}

TEST(ElasticTrain, SerialPathRecordsOneAllreduceSpanPerStep) {
  // obs::report reads allreduce time from phase.allreduce spans; elastic's
  // serial path used to record none, so its column read 0. A traced,
  // event-free run must record what the fixed trainer records: one span
  // per rank per step, carrying the whole gradient's bytes.
  data::SyntheticImageNet ds(tiny_data_cfg());
  optim::ConstantLr lr(0.02);
  auto eo = elastic_options();
  eo.initial_world = 2;
  eo.max_world = 2;
  eo.total_iterations = 0;
  eo.train.epochs = 1;
  train::TrainOptions to = eo.train;
  to.global_batch = eo.local_batch * 2;
  auto net = det_model();
  Rng rng(1);
  net->init(rng);
  const std::int64_t grad_bytes = 4 * net->num_params();

  // (phase.allreduce spans, iterations) of one traced run.
  const auto traced = [&](const std::function<std::int64_t()>& run) {
    obs::tracer().clear();
    obs::tracer().set_enabled(true);
    const std::int64_t iters = run();
    obs::tracer().set_enabled(false);
    std::int64_t spans = 0;
    for (const auto& sp : obs::tracer().snapshot()) {
      if (sp.name != "phase.allreduce") continue;
      ++spans;
      EXPECT_EQ(sp.bytes, grad_bytes);
    }
    obs::tracer().clear();
    return std::make_pair(spans, iters);
  };
  const auto elastic = traced([&] {
    return train::train_sync_elastic(det_model, sgd_factory(), lr, ds, eo)
        .iterations;
  });
  const auto fixed = traced([&] {
    return train::train_sync_data_parallel(det_model, sgd_factory(), lr, ds,
                                           to, 2)
        .iterations;
  });
  ASSERT_GT(elastic.second, 0);
  EXPECT_EQ(elastic.second, fixed.second);
  EXPECT_EQ(elastic.first, elastic.second * 2);
  EXPECT_EQ(elastic.first, fixed.first);
}

TEST(ElasticTrain, ShrinkMatchesFixedWorldResumedFromPreShrinkState) {
  // Shrink determinism: a 3-member run that loses rank 1 at step k must
  // finish bit-identical to a 2-member elastic run resumed from the
  // 3-member run's state at k (with the LR rule anchored at the original
  // base batch). Survivor shards and LR depend only on the committed view.
  data::SyntheticImageNet ds(tiny_data_cfg());
  optim::StepLr lr(0.02, 7, 0.5);
  const std::int64_t k = 6;

  auto shrink = elastic_options();
  shrink.events.push_back({k, ElasticEventKind::kLeave, 1});
  const auto a =
      train::train_sync_elastic(det_model, sgd_factory(), lr, ds, shrink);
  ASSERT_EQ(a.reconfigurations, 1);
  ASSERT_EQ(a.reconfigs[0].at_iter, k);
  EXPECT_EQ(a.reconfigs[0].world, 2);
  EXPECT_EQ(a.reconfigs[0].generation, 1);
  EXPECT_FALSE(a.reconfigs[0].fault_triggered);

  auto prefix = elastic_options();
  prefix.total_iterations = k;
  const auto pre =
      train::train_sync_elastic(det_model, sgd_factory(), lr, ds, prefix);
  ASSERT_FALSE(pre.final_state.empty());

  auto cont = elastic_options();
  cont.initial_world = 2;
  cont.max_world = 2;
  cont.base_global_batch = 16 * 3;  // anchor the LR rule at the original base
  cont.resume_state = pre.final_state;
  const auto b =
      train::train_sync_elastic(det_model, sgd_factory(), lr, ds, cont);

  ASSERT_FALSE(a.final_weights.empty());
  EXPECT_EQ(a.final_weights, b.final_weights);
  EXPECT_EQ(a.iterations, b.iterations);
}

// ---------------- joins and fault-injected soak ----------------

train::ElasticOptions soak_options() {
  auto o = elastic_options();
  o.initial_world = 3;
  o.max_world = 4;  // physical rank 3 starts as a standby joiner slot
  o.total_iterations = 24;
  o.events.push_back({6, ElasticEventKind::kLeave, 1});
  o.events.push_back({12, ElasticEventKind::kJoin, 3});
  o.events.push_back({18, ElasticEventKind::kLeave, 0});
  return o;
}

TEST(ElasticTrain, ShrinkGrowShrinkCompletesAndJoinerIsBitExact) {
  // The full schedule: 3 members -> drop one -> admit a cold joiner via the
  // state broadcast -> drop the original leader. Every transition commits
  // in one attempt and training runs to completion without restart.
  data::SyntheticImageNet ds(tiny_data_cfg());
  optim::ConstantLr lr(0.02);
  const auto r =
      train::train_sync_elastic(det_model, sgd_factory(), lr, ds,
                                soak_options());
  EXPECT_EQ(r.iterations, 24);
  ASSERT_EQ(r.reconfigurations, 3);
  EXPECT_EQ(r.reconfigs[0].world, 2);
  EXPECT_EQ(r.reconfigs[1].world, 3);
  EXPECT_EQ(r.reconfigs[2].world, 2);
  for (const auto& rec : r.reconfigs) {
    EXPECT_GT(rec.pause_ns, 0) << "gen " << rec.generation;
  }
  ASSERT_FALSE(r.result.epochs.empty());
  EXPECT_TRUE(std::isfinite(r.result.epochs.back().train_loss));
}

TEST(ElasticTrain, FaultInjectedSoakMatchesCleanScheduleBitwise) {
  // Message loss under the same join/leave schedule: drops surface as
  // CommTimeout -> reconfigure (same membership, fresh generation) -> the
  // interrupted iteration is retried and stragglers are healed by the
  // state broadcast. Since every completed allreduce is exact regardless
  // of which peers stalled, the healed trajectory is *bit-identical* to
  // the fault-free run of the same schedule — the strongest form of the
  // "loss within tolerance" acceptance bar.
  data::SyntheticImageNet ds(tiny_data_cfg());
  optim::ConstantLr lr(0.02);

  const auto clean =
      train::train_sync_elastic(det_model, sgd_factory(), lr, ds,
                                soak_options());
  ASSERT_FALSE(clean.final_weights.empty());

  auto faulty_opts = soak_options();
  faulty_opts.recv_timeout = 300ms;  // a lost message costs one retry
  comm::FaultPlan plan;
  plan.seed = 11;
  plan.drop_prob = 0.01;
  auto injector =
      std::make_shared<comm::FaultInjector>(plan, faulty_opts.max_world);
  const auto faulty = train::train_sync_elastic(
      det_model, sgd_factory(), lr, ds, faulty_opts, injector);

  EXPECT_GT(faulty.faults.dropped, 0);
  // The three scheduled transitions plus at least one fault-triggered
  // re-formation.
  EXPECT_GE(faulty.reconfigurations, 4);
  bool any_fault_triggered = false;
  for (const auto& rec : faulty.reconfigs) {
    any_fault_triggered |= rec.fault_triggered;
  }
  EXPECT_TRUE(any_fault_triggered);
  EXPECT_EQ(faulty.iterations, clean.iterations);
  EXPECT_EQ(faulty.result.iterations_run, faulty.iterations);
  EXPECT_EQ(faulty.final_weights, clean.final_weights);
}

TEST(ElasticTrain, JoinerAdmissionUnderMessageLossMatchesCleanSchedule) {
  // A joiner enters through the same reconfiguration routine as every
  // member, so a message lost in its admission state broadcast costs one
  // more generation, not its seat: the joiner stays in the view, the
  // schedule still ends at world 2, and the weights equal the clean run's.
  // With seed 3 at this drop rate, a joiner handled outside that routine
  // was often dropped from the view after a faulted admission.
  data::SyntheticImageNet ds(tiny_data_cfg());
  optim::ConstantLr lr(0.02);
  const auto clean = train::train_sync_elastic(det_model, sgd_factory(), lr,
                                               ds, soak_options());
  ASSERT_FALSE(clean.final_weights.empty());

  auto o = soak_options();
  o.recv_timeout = 300ms;
  comm::FaultPlan plan;
  plan.seed = 3;
  plan.drop_prob = 0.02;
  auto injector = std::make_shared<comm::FaultInjector>(plan, o.max_world);
  const auto faulty = train::train_sync_elastic(det_model, sgd_factory(), lr,
                                                ds, o, injector);

  EXPECT_GT(faulty.faults.dropped, 0);
  ASSERT_FALSE(faulty.reconfigs.empty());
  EXPECT_EQ(faulty.reconfigs.back().world, 2);
  EXPECT_EQ(faulty.iterations, clean.iterations);
  EXPECT_EQ(faulty.final_weights, clean.final_weights);
}

TEST(ElasticTrain, CrashShrinksMembershipAndRunCompletes) {
  // A hard crash (injected RankFailure) is not a scheduled leave: the dead
  // rank self-reports, survivors re-form without it, and training still
  // finishes. The trajectory legitimately differs from the clean run after
  // the crash (the world shrank), so the assertions are structural.
  data::SyntheticImageNet ds(tiny_data_cfg());
  optim::ConstantLr lr(0.02);

  auto o = elastic_options();
  o.total_iterations = 16;
  o.recv_timeout = 300ms;
  comm::FaultPlan plan;
  plan.crash_rank = 2;
  plan.crash_at_send = 30;
  auto injector = std::make_shared<comm::FaultInjector>(plan, o.max_world);
  const auto r = train::train_sync_elastic(det_model, sgd_factory(), lr, ds,
                                           o, injector);

  EXPECT_EQ(r.faults.crashes, 1);
  EXPECT_GE(r.reconfigurations, 1);
  EXPECT_EQ(r.iterations, 16);
  // The committed view after recovery no longer contains the crashed rank.
  ASSERT_FALSE(r.reconfigs.empty());
  EXPECT_EQ(r.reconfigs.back().world, 2);
  ASSERT_FALSE(r.final_weights.empty());
  ASSERT_FALSE(r.result.epochs.empty());
  EXPECT_TRUE(std::isfinite(r.result.epochs.back().train_loss));
}

TEST(ElasticTrain, RejectsUnsupportedAndBadGeometry) {
  data::SyntheticImageNet ds(tiny_data_cfg());
  optim::ConstantLr lr(0.02);
  auto o = elastic_options();
  o.local_batch = 512;  // 512 * 3 members > 256 training samples
  EXPECT_THROW(train::train_sync_elastic(det_model, sgd_factory(), lr, ds, o),
               std::invalid_argument);
}

}  // namespace
}  // namespace minsgd

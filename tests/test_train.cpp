#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <utility>

#include "data/synthetic.hpp"
#include "nn/activation.hpp"
#include "nn/conv.hpp"
#include "nn/linear.hpp"
#include "nn/models.hpp"
#include "nn/pool.hpp"
#include "obs/metrics.hpp"
#include "optim/schedule.hpp"
#include "optim/sgd.hpp"
#include "train/elastic.hpp"
#include "train/fault_tolerant.hpp"
#include "train/sync_replica.hpp"
#include "train/trainer.hpp"

namespace minsgd {
namespace {

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

// A deterministic model (no dropout, no batch norm): required for the exact
// sequential-consistency comparison below.
std::unique_ptr<nn::Network> det_model(std::int64_t classes = 4,
                                       std::int64_t res = 12) {
  auto net = std::make_unique<nn::Network>("det");
  net->emplace<nn::Conv2d>(3, 8, 3, 1, 1);
  net->emplace<nn::ReLU>();
  net->emplace<nn::MaxPool2d>(2, 2);
  net->emplace<nn::Flatten>();
  net->emplace<nn::Linear>(8 * (res / 2) * (res / 2), classes);
  return net;
}

TEST(TrainSingle, LossDecreasesOnLearnableTask) {
  data::SyntheticImageNet ds(tiny_data_cfg());
  auto net = det_model();
  optim::Sgd opt({.momentum = 0.9, .weight_decay = 0.0005});
  optim::ConstantLr lr(0.05);
  train::TrainOptions options;
  options.global_batch = 32;
  options.epochs = 4;
  const auto res = train::train_single(*net, opt, lr, ds, options);
  ASSERT_FALSE(res.diverged);
  ASSERT_EQ(res.epochs.size(), 4u);
  EXPECT_LT(res.epochs.back().train_loss, res.epochs.front().train_loss);
  EXPECT_GT(res.final_test_acc, 0.5);  // way above 25% chance
}

TEST(TrainSingle, IterationsRunMatchesBudget) {
  data::SyntheticImageNet ds(tiny_data_cfg());
  auto net = det_model();
  optim::Sgd opt;
  optim::ConstantLr lr(0.01);
  train::TrainOptions options;
  options.global_batch = 64;
  options.epochs = 3;
  const auto res = train::train_single(*net, opt, lr, ds, options);
  EXPECT_EQ(res.iterations_run, 3 * (256 / 64));
}

TEST(TrainSingle, DivergenceDetectedAtInsaneLr) {
  data::SyntheticImageNet ds(tiny_data_cfg());
  auto net = det_model();
  optim::Sgd opt({.momentum = 0.9, .weight_decay = 0.0});
  optim::ConstantLr lr(500.0);
  train::TrainOptions options;
  options.global_batch = 32;
  options.epochs = 3;
  const auto res = train::train_single(*net, opt, lr, ds, options);
  EXPECT_TRUE(res.diverged);
  EXPECT_LT(res.iterations_run, 3 * (256 / 32));  // stopped early
}

TEST(TrainSingle, DeterministicGivenSeeds) {
  data::SyntheticImageNet ds(tiny_data_cfg());
  train::TrainOptions options;
  options.global_batch = 32;
  options.epochs = 2;
  auto run = [&] {
    auto net = det_model();
    optim::Sgd opt;
    optim::ConstantLr lr(0.02);
    return train::train_single(*net, opt, lr, ds, options);
  };
  const auto a = run();
  const auto b = run();
  ASSERT_EQ(a.epochs.size(), b.epochs.size());
  EXPECT_DOUBLE_EQ(a.epochs.back().train_loss, b.epochs.back().train_loss);
  EXPECT_DOUBLE_EQ(a.final_test_acc, b.final_test_acc);
}

// The paper's sequential-consistency argument, made executable: a P-way
// synchronous data-parallel run must match the single-process run on the
// same global batch exactly (same data order, same init, deterministic
// model.)
class SequentialConsistency : public ::testing::TestWithParam<int> {};

TEST_P(SequentialConsistency, DistributedMatchesSingleProcess) {
  const int world = GetParam();
  data::SyntheticImageNet ds(tiny_data_cfg());
  train::TrainOptions options;
  options.global_batch = 32;
  options.epochs = 2;
  optim::ConstantLr lr(0.02);

  auto single_net = det_model();
  optim::Sgd single_opt({.momentum = 0.9, .weight_decay = 0.0005});
  const auto single =
      train::train_single(*single_net, single_opt, lr, ds, options);

  const auto dist = train::train_sync_data_parallel(
      [] { return det_model(); },
      [] {
        return std::make_unique<optim::Sgd>(
            optim::SgdConfig{.momentum = 0.9, .weight_decay = 0.0005});
      },
      lr, ds, options, world, comm::AllreduceAlgo::kTree);

  ASSERT_EQ(single.epochs.size(), dist.result.epochs.size());
  for (std::size_t e = 0; e < single.epochs.size(); ++e) {
    // Loss scalars go through one float allreduce; tolerance covers the
    // different summation order.
    EXPECT_NEAR(single.epochs[e].train_loss, dist.result.epochs[e].train_loss,
                1e-4);
    EXPECT_NEAR(single.epochs[e].train_acc, dist.result.epochs[e].train_acc,
                1e-6);
  }
  EXPECT_NEAR(single.final_test_acc, dist.result.final_test_acc, 0.02);
  if (world == 1) {
    // One rank sums nothing across replicas, so the distributed step is the
    // sequential reference step: the weights must agree byte for byte.
    const auto ref = single_net->flatten_params();
    ASSERT_EQ(ref.size(), dist.final_weights.size());
    EXPECT_EQ(std::memcmp(ref.data(), dist.final_weights.data(),
                          ref.size() * sizeof(float)),
              0);
  }
}

INSTANTIATE_TEST_SUITE_P(Worlds, SequentialConsistency,
                         ::testing::Values(1, 2, 4, 8));

TEST(TrainDistributed, TrafficScalesWithModelAndIterations) {
  data::SyntheticImageNet ds(tiny_data_cfg());
  train::TrainOptions options;
  options.global_batch = 64;
  options.epochs = 1;
  optim::ConstantLr lr(0.01);
  const int world = 4;
  const auto dist = train::train_sync_data_parallel(
      [] { return det_model(); },
      [] { return std::make_unique<optim::Sgd>(); }, lr, ds, options, world,
      comm::AllreduceAlgo::kRing);
  EXPECT_GT(dist.traffic.messages, 0);
  EXPECT_GT(dist.traffic.bytes, 0);
  // Ring allreduce total bytes per iteration ~ 2 * |W| * 4 bytes (plus the
  // tiny stats allreduce); iterations = 4.
  auto params_net = det_model();
  Rng rng(1);
  params_net->init(rng);
  const double grad_bytes = 4.0 * static_cast<double>(params_net->num_params());
  // Ring allreduce moves 2*(P-1) chunk rounds of ~|W|/P floats per rank;
  // summed over ranks that is 2*(P-1)*|W| floats per iteration.
  const double expect = 2.0 * (world - 1) * grad_bytes * 4 /*iters*/;
  EXPECT_NEAR(static_cast<double>(dist.traffic.bytes), expect, expect * 0.2);
}

TEST(TrainDistributed, RejectsIndivisibleBatch) {
  data::SyntheticImageNet ds(tiny_data_cfg());
  train::TrainOptions options;
  options.global_batch = 30;
  optim::ConstantLr lr(0.01);
  EXPECT_THROW(
      train::train_sync_data_parallel(
          [] { return det_model(); },
          [] { return std::make_unique<optim::Sgd>(); }, lr, ds, options, 4),
      std::invalid_argument);
}

TEST(TrainDistributed, BucketBytesValidatedUpFront) {
  // Regression: bucket_bytes used to be validated inside the iteration
  // loop, so a bad value surfaced only after a full forward/backward (and
  // not at all on empty runs). It must throw before any work happens, on
  // every synchronous trainer.
  data::SyntheticImageNet ds(tiny_data_cfg());
  optim::ConstantLr lr(0.01);
  const auto model = [] { return det_model(); };
  const auto sgd = []() -> std::unique_ptr<optim::Optimizer> {
    return std::make_unique<optim::Sgd>();
  };
  const std::pair<const char*,
                  std::function<std::int64_t(std::int64_t bucket_bytes)>>
      trainers[] = {
          {"fixed",
           [&](std::int64_t bucket_bytes) {
             train::TrainOptions o;
             o.global_batch = 32;
             o.epochs = 1;
             o.bucket_bytes = bucket_bytes;
             return train::train_sync_data_parallel(model, sgd, lr, ds, o, 2)
                 .iterations;
           }},
          {"fault_tolerant",
           [&](std::int64_t bucket_bytes) {
             train::FaultTolerantOptions o;
             o.train.global_batch = 32;
             o.train.epochs = 1;
             o.train.bucket_bytes = bucket_bytes;
             o.checkpoint_path = ::testing::TempDir() + "/bucket_ft.ckpt";
             return train::train_sync_fault_tolerant(model, sgd, lr, ds, o, 2)
                 .iterations;
           }},
          {"elastic",
           [&](std::int64_t bucket_bytes) {
             train::ElasticOptions o;
             o.local_batch = 16;
             o.initial_world = 2;
             o.max_world = 2;
             o.train.epochs = 1;
             o.train.bucket_bytes = bucket_bytes;
             return train::train_sync_elastic(model, sgd, lr, ds, o)
                 .iterations;
           }},
      };
  for (const auto& [name, run] : trainers) {
    SCOPED_TRACE(name);
    EXPECT_THROW(run(1), std::invalid_argument);   // < one float
    EXPECT_THROW(run(3), std::invalid_argument);   // still < one float
    EXPECT_THROW(run(-8), std::invalid_argument);  // negative
    EXPECT_GT(run(0), 0);                          // 0 = single bucket, valid
    EXPECT_GT(run(4), 0);                          // minimum legal bucket
  }
}

TEST(Bucketing, EquivalentToSingleAllreduce) {
  data::SyntheticImageNet ds(tiny_data_cfg());
  train::TrainOptions options;
  options.global_batch = 32;
  options.epochs = 2;
  optim::ConstantLr lr(0.02);
  auto run = [&](std::int64_t bucket_bytes) {
    options.bucket_bytes = bucket_bytes;
    return train::train_sync_data_parallel(
        [] { return det_model(); },
        [] {
          return std::make_unique<optim::Sgd>(
              optim::SgdConfig{.momentum = 0.9, .weight_decay = 0.0005});
        },
        lr, ds, options, 4, comm::AllreduceAlgo::kTree);
  };
  const auto whole = run(0);
  const auto bucketed = run(1024);
  ASSERT_EQ(whole.result.epochs.size(), bucketed.result.epochs.size());
  for (std::size_t e = 0; e < whole.result.epochs.size(); ++e) {
    EXPECT_NEAR(whole.result.epochs[e].train_loss,
                bucketed.result.epochs[e].train_loss, 1e-5);
  }
  // More buckets -> more messages for the same bytes.
  EXPECT_GT(bucketed.traffic.messages, whole.traffic.messages);
  EXPECT_EQ(bucketed.traffic.bytes, whole.traffic.bytes);
}

TEST(SyncReplica, SteadyStateAllocsAreZero) {
  // ExecutionPlan.SteadyStateAllocsAreZero one level up: after two warm-up
  // steps, a 2-rank replica's whole step (batch load into reused storage,
  // planned forward/backward, reduce, update, stats allreduce) allocates no
  // tensors, with the serial and with the overlap reducer.
  data::SyntheticImageNet ds(tiny_data_cfg());
  auto& allocs = obs::metrics().counter("tensor.allocs");
  for (const bool overlap : {false, true}) {
    SCOPED_TRACE(overlap ? "overlap" : "serial");
    train::TrainOptions options;
    options.global_batch = 32;
    options.overlap_comm = overlap;
    options.bucket_bytes = overlap ? 1024 : 0;
    std::int64_t warm = 0, steady = 0;
    comm::SimCluster cluster(2);
    cluster.run([&](comm::Communicator& comm) {
      train::SyncReplica replica(
          [] { return det_model(); },
          [] {
            return std::make_unique<optim::Sgd>(
                optim::SgdConfig{.momentum = 0.9, .weight_decay = 0.0005});
          },
          options, comm::AllreduceAlgo::kRing);
      data::ShardedLoader loader(ds, options.global_batch, comm.rank(), 2);
      replica.attach(comm, loader);
      std::int64_t it = 0;
      for (; it < 2; ++it) replica.step(0, it, 0.01, it);
      comm.barrier();
      if (comm.rank() == 0) warm = allocs.value();
      comm.barrier();
      for (; it < 7; ++it) replica.step(0, it, 0.01, it);
      comm.barrier();
      if (comm.rank() == 0) steady = allocs.value();
    });
    EXPECT_EQ(steady, warm) << "steady-state steps must not allocate";
  }
}

TEST(Evaluate, PerfectAndChanceBounds) {
  const ComputeContext ctx;
  data::SyntheticImageNet ds(tiny_data_cfg());
  auto net = det_model();
  Rng rng(3);
  net->init(rng);
  const double acc = train::evaluate(*net, ds, 256, ctx);
  EXPECT_GE(acc, 0.0);
  EXPECT_LE(acc, 1.0);
}

}  // namespace
}  // namespace minsgd

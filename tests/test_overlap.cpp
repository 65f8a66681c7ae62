// Comm/compute overlap: async collective engine, bucketing assigner, and
// the determinism bar the tentpole demands — with the same seed and bucket
// configuration, overlap_comm on and off produce bit-identical weights,
// loss trajectories, and RNG streams at every world size.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <tuple>
#include <vector>

#include "comm/async.hpp"
#include "comm/cluster.hpp"
#include "data/loader.hpp"
#include "data/synthetic.hpp"
#include "nn/activation.hpp"
#include "nn/conv.hpp"
#include "nn/dropout.hpp"
#include "nn/linear.hpp"
#include "nn/pool.hpp"
#include "nn/loss.hpp"
#include "optim/schedule.hpp"
#include "optim/sgd.hpp"
#include "tensor/ops.hpp"
#include "tensor/rng.hpp"
#include "train/fault_tolerant.hpp"
#include "train/overlap.hpp"
#include "train/trainer.hpp"
#include "postmortem_path.hpp"

namespace minsgd {
namespace {

using comm::AllreduceAlgo;
using comm::AllreduceHandle;
using comm::AsyncCollectiveEngine;
using comm::Communicator;
using comm::SimCluster;

data::SynthConfig tiny_data_cfg() {
  data::SynthConfig c;
  c.classes = 4;
  c.resolution = 12;
  c.train_size = 256;
  c.test_size = 64;
  c.noise = 0.4f;
  c.distractor = 0.3f;
  c.seed = 5;
  return c;
}

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

/// Same trunk plus dropout: per-layer RNG streams make this the witness
/// that overlap does not perturb stochastic state.
std::unique_ptr<nn::Network> dropout_model(std::int64_t classes = 4,
                                           std::int64_t res = 12) {
  auto net = std::make_unique<nn::Network>("drop");
  net->emplace<nn::Conv2d>(3, 8, 3, 1, 1);
  net->emplace<nn::ReLU>();
  net->emplace<nn::MaxPool2d>(2, 2);
  net->emplace<nn::Flatten>();
  net->emplace<nn::Dropout>(0.25f);
  net->emplace<nn::Linear>(8 * (res / 2) * (res / 2), classes);
  return net;
}

// ---------------- async collective engine ----------------

TEST(AsyncEngine, SingleOpMatchesSequentialSum) {
  const int world = 4;
  const std::size_t n = 257;
  SimCluster cluster(world);
  std::vector<std::vector<float>> inputs(world);
  for (int r = 0; r < world; ++r) {
    Rng rng(static_cast<std::uint64_t>(r) * 13 + 1);
    inputs[static_cast<std::size_t>(r)].resize(n);
    rng.fill_uniform(inputs[static_cast<std::size_t>(r)], -1.0f, 1.0f);
  }
  std::vector<float> expected(n, 0.0f);
  for (const auto& in : inputs) {
    for (std::size_t i = 0; i < n; ++i) expected[i] += in[i];
  }
  cluster.run([&](Communicator& comm) {
    AsyncCollectiveEngine engine(comm.cluster(), comm.rank());
    auto data = inputs[static_cast<std::size_t>(comm.rank())];
    auto h = engine.allreduce_sum_async(data, AllreduceAlgo::kRing);
    h.wait();
    EXPECT_TRUE(h.done());
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_NEAR(data[i], expected[i], 1e-4) << "i=" << i;
    }
    EXPECT_EQ(engine.ops_completed(), 1);
  });
}

TEST(AsyncEngine, FifoOrderMatchesBlockingPerBucketBitExact) {
  // Many buckets of mixed sizes launched back to back: each must equal the
  // *blocking* allreduce of the same span bit-for-bit, because the engine
  // runs the identical algorithm on the identical data.
  const int world = 3;
  const std::vector<std::size_t> sizes = {64, 1, 300, 7, 128};
  std::size_t total = 0;
  for (auto s : sizes) total += s;

  auto make_input = [&](int r) {
    std::vector<float> v(total);
    Rng rng(static_cast<std::uint64_t>(r) * 91 + 3);
    rng.fill_uniform(v, -2.0f, 2.0f);
    return v;
  };

  // Blocking reference: same buckets, same algo, main channel.
  std::vector<float> blocking_rank0;
  {
    SimCluster cluster(world);
    std::mutex mu;
    cluster.run([&](Communicator& comm) {
      auto data = make_input(comm.rank());
      std::size_t off = 0;
      for (auto s : sizes) {
        comm.allreduce_sum(std::span<float>(data).subspan(off, s),
                           AllreduceAlgo::kRing);
        off += s;
      }
      if (comm.rank() == 0) {
        std::lock_guard lk(mu);
        blocking_rank0 = std::move(data);
      }
    });
  }

  SimCluster cluster(world);
  std::mutex mu;
  std::vector<float> async_rank0;
  cluster.run([&](Communicator& comm) {
    AsyncCollectiveEngine engine(comm.cluster(), comm.rank());
    auto data = make_input(comm.rank());
    std::vector<AllreduceHandle> handles;
    std::size_t off = 0;
    for (auto s : sizes) {
      handles.push_back(engine.allreduce_sum_async(
          std::span<float>(data).subspan(off, s), AllreduceAlgo::kRing));
      off += s;
    }
    for (auto& h : handles) h.wait();
    if (comm.rank() == 0) {
      std::lock_guard lk(mu);
      async_rank0 = std::move(data);
    }
  });
  ASSERT_EQ(async_rank0.size(), blocking_rank0.size());
  // Bit-exact: same bucket boundaries + same algorithm = same reduction
  // order, asynchrony must not change a single ulp.
  EXPECT_EQ(async_rank0, blocking_rank0);
}

TEST(AsyncEngine, OverlapsWithMainChannelCollectives) {
  // Async ops in flight must not collide with the rank thread's own
  // collectives: the engine lives on a separate tag channel.
  const int world = 4;
  SimCluster cluster(world);
  cluster.run([&](Communicator& comm) {
    AsyncCollectiveEngine engine(comm.cluster(), comm.rank());
    std::vector<float> grad(4096, 1.0f);
    auto h = engine.allreduce_sum_async(grad, AllreduceAlgo::kRing);
    std::vector<float> stats(2, static_cast<float>(comm.rank()));
    comm.allreduce_sum(stats, AllreduceAlgo::kStar);  // concurrent, main ch.
    h.wait();
    for (float v : grad) ASSERT_EQ(v, static_cast<float>(world));
    for (float v : stats) ASSERT_EQ(v, 6.0f);  // 0+1+2+3
  });
}

TEST(AsyncEngine, BusyTimeIsTracked) {
  SimCluster cluster(2);
  cluster.run([&](Communicator& comm) {
    AsyncCollectiveEngine engine(comm.cluster(), comm.rank());
    std::vector<float> data(1 << 16, 1.0f);
    engine.allreduce_sum_async(data, AllreduceAlgo::kRing).wait();
    EXPECT_GT(engine.busy_ns(), 0);
  });
}

TEST(AsyncEngine, DropFaultSurfacesAsCommTimeoutNotHang) {
  // Every message dropped: the in-flight bucket's recv must time out and
  // surface through wait() as the fault taxonomy, promptly.
  const int world = 2;
  SimCluster cluster(world);
  comm::FaultPlan plan;
  plan.drop_prob = 1.0;
  cluster.set_fault_injector(std::make_shared<comm::FaultInjector>(plan, world));
  cluster.set_recv_timeout(std::chrono::milliseconds(200));
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_THROW(cluster.run([&](Communicator& comm) {
                 AsyncCollectiveEngine engine(comm.cluster(), comm.rank());
                 std::vector<float> data(64, 1.0f);
                 auto h = engine.allreduce_sum_async(data, AllreduceAlgo::kRing);
                 h.wait();
               }),
               comm::FaultError);
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_LT(std::chrono::duration_cast<std::chrono::seconds>(elapsed).count(),
            20);
}

TEST(AsyncEngine, QueuedOpsBehindFailureFailFast) {
  // Once one collective fails, later queued ops must not run (their tags
  // would no longer match peers) — they inherit the root-cause error.
  const int world = 2;
  SimCluster cluster(world);
  comm::FaultPlan plan;
  plan.drop_prob = 1.0;
  cluster.set_fault_injector(std::make_shared<comm::FaultInjector>(plan, world));
  cluster.set_recv_timeout(std::chrono::milliseconds(200));
  std::atomic<int> poisoned{0};
  EXPECT_THROW(
      cluster.run([&](Communicator& comm) {
        AsyncCollectiveEngine engine(comm.cluster(), comm.rank());
        std::vector<float> a(64, 1.0f), b(64, 1.0f), c(64, 1.0f);
        auto ha = engine.allreduce_sum_async(a, AllreduceAlgo::kRing);
        auto hb = engine.allreduce_sum_async(b, AllreduceAlgo::kRing);
        auto hc = engine.allreduce_sum_async(c, AllreduceAlgo::kRing);
        try {
          hb.wait();
        } catch (const comm::FaultError&) {
          poisoned.fetch_add(1);
        }
        try {
          hc.wait();
        } catch (const comm::FaultError&) {
          poisoned.fetch_add(1);
        }
        ha.wait();  // the root cause, rethrown out of the rank fn
      }),
      comm::FaultError);
  EXPECT_EQ(poisoned.load(), 2 * world);
}

TEST(AsyncEngine, CrashFaultPropagatesAsRankFailure) {
  const int world = 3;
  SimCluster cluster(world);
  comm::FaultPlan plan;
  plan.crash_rank = 1;
  plan.crash_at_send = 0;  // die on the very first send of the collective
  cluster.set_fault_injector(std::make_shared<comm::FaultInjector>(plan, world));
  cluster.set_recv_timeout(std::chrono::milliseconds(500));
  EXPECT_THROW(cluster.run([&](Communicator& comm) {
                 AsyncCollectiveEngine engine(comm.cluster(), comm.rank());
                 std::vector<float> data(256, 1.0f);
                 engine.allreduce_sum_async(data, AllreduceAlgo::kStar).wait();
               }),
               comm::FaultError);
}

// ---------------- OverlapAllreducer unit behaviour ----------------

TEST(OverlapAllreducer, SumsGradientsAndPreservesRngState) {
  // Drive three manual training iterations with a dropout model, overlap
  // on vs off, inside the same harness — weights AND the dropout RNG
  // streams must come out bit-identical.
  const int world = 2;
  const std::int64_t bucket_bytes = 256;  // smaller than the conv layer

  auto run = [&](bool overlap_on) {
    data::SyntheticImageNet ds(tiny_data_cfg());
    SimCluster cluster(world);
    std::mutex mu;
    std::vector<float> weights;
    std::vector<RngState> rng_states;
    cluster.run([&](Communicator& comm) {
      const ComputeContext& ctx = comm.ctx();
      auto net = dropout_model();
      Rng init(7);
      net->init(init);
      auto params = net->params();
      optim::Sgd opt({.momentum = 0.9, .weight_decay = 0.0005});
      data::ShardedLoader loader(ds, 32, comm.rank(), world, std::nullopt);
      nn::SoftmaxCrossEntropy loss;
      std::unique_ptr<train::OverlapAllreducer> ov;
      if (overlap_on) {
        ov = std::make_unique<train::OverlapAllreducer>(
            *net, comm, bucket_bytes, AllreduceAlgo::kRing);
      }
      Tensor logits, dlogits, dx;
      for (int it = 0; it < 3; ++it) {
        auto batch = loader.load_train(0, it, ctx);
        net->zero_grad();
        net->forward(batch.x, logits, /*training=*/true, ctx);
        loss.forward_backward(logits, batch.labels, &dlogits, ctx);
        if (ov) ov->begin_iteration();
        net->backward(batch.x, logits, dlogits, dx, ctx);
        std::span<float> flat;
        if (ov) {
          flat = ov->finish();
        } else {
          flat = net->grad_span();
          const auto bucket = static_cast<std::size_t>(bucket_bytes / 4);
          std::span<float> rest(flat);
          while (!rest.empty()) {
            const auto n = std::min(bucket, rest.size());
            comm.allreduce_sum(rest.subspan(0, n), AllreduceAlgo::kRing);
            rest = rest.subspan(n);
          }
        }
        scale(1.0f / world, flat);  // in place: params' grads see it
        opt.step(params, 0.05, ctx);
      }
      if (comm.rank() == 0) {
        std::lock_guard lk(mu);
        weights = net->flatten_params();
        for (Rng* r : net->rng_streams()) rng_states.push_back(r->state());
      }
    });
    return std::make_pair(weights, rng_states);
  };

  const auto [w_off, rng_off] = run(false);
  const auto [w_on, rng_on] = run(true);
  ASSERT_FALSE(w_off.empty());
  EXPECT_EQ(w_on, w_off);  // bit-identical weights
  ASSERT_EQ(rng_on.size(), rng_off.size());
  ASSERT_GT(rng_on.size(), 0u);  // dropout contributes at least one stream
  for (std::size_t i = 0; i < rng_on.size(); ++i) {
    for (int k = 0; k < 4; ++k) EXPECT_EQ(rng_on[i].s[k], rng_off[i].s[k]);
    EXPECT_EQ(rng_on[i].has_cached, rng_off[i].has_cached);
    EXPECT_EQ(rng_on[i].cached_normal, rng_off[i].cached_normal);
  }
}

TEST(OverlapAllreducer, BucketSpanningTwoLayersReducesInPlace) {
  // Bucket boundaries every 200 floats; det_model's conv ends at float 224,
  // so bucket 1 = [200, 400) holds the conv's tail and the linear's head
  // and is reduced in place only after both layers reported.
  const int world = 2;
  const std::size_t bucket_floats = 200;
  data::SyntheticImageNet ds(tiny_data_cfg());
  SimCluster cluster(world);
  std::mutex mu;
  std::vector<std::vector<float>> local(world), reduced(world);
  std::size_t conv_floats = 0;
  cluster.run([&](Communicator& comm) {
    const ComputeContext& ctx = comm.ctx();
    auto net = det_model();
    Rng init(7);
    net->init(init);
    data::ShardedLoader loader(ds, 32, comm.rank(), world, std::nullopt);
    nn::SoftmaxCrossEntropy loss;
    const auto batch = loader.load_train(0, 0, ctx);
    Tensor logits, dlogits, dx;
    const auto backprop = [&] {
      net->zero_grad();
      net->forward(batch.x, logits, /*training=*/true, ctx);
      loss.forward_backward(logits, batch.labels, &dlogits, ctx);
      net->backward(batch.x, logits, dlogits, dx, ctx);
    };
    backprop();  // this rank's own gradient, before the hook is installed
    const std::span<const float> g = net->grad_span();
    std::vector<float> own(g.begin(), g.end());

    train::OverlapAllreducer ov(*net, comm, bucket_floats * 4,
                                AllreduceAlgo::kRing);
    ov.begin_iteration();
    backprop();
    const std::span<float> flat = ov.finish();
    EXPECT_EQ(flat.data(), net->grad_span().data());
    EXPECT_EQ(ov.num_buckets(),
              (g.size() + bucket_floats - 1) / bucket_floats);
    std::lock_guard lk(mu);
    conv_floats = 0;
    for (const auto& p : net->layer(0).params()) {
      conv_floats += static_cast<std::size_t>(p.grad->numel());
    }
    local[static_cast<std::size_t>(comm.rank())] = std::move(own);
    reduced[static_cast<std::size_t>(comm.rank())].assign(flat.begin(),
                                                          flat.end());
  });
  ASSERT_EQ(conv_floats, 224u);
  ASSERT_NE(conv_floats % bucket_floats, 0u);  // the boundary is mid-layer
  ASSERT_EQ(local[0].size(), local[1].size());
  // Float addition commutes, so with two addends the ring's sum is
  // local[0] + local[1] bit for bit, whichever rank adds.
  for (std::size_t i = 0; i < local[0].size(); ++i) {
    const float want = local[0][i] + local[1][i];
    ASSERT_EQ(reduced[0][i], want) << "float " << i;
    ASSERT_EQ(reduced[1][i], want) << "float " << i;
  }
}

TEST(OverlapAllreducer, BucketCountMatchesConfiguration) {
  SimCluster cluster(1);
  cluster.run([&](Communicator& comm) {
    auto net = det_model();
    Rng init(7);
    net->init(init);
    const auto n = static_cast<std::size_t>(net->num_params());
    train::OverlapAllreducer one(*net, comm, 0, AllreduceAlgo::kRing);
    EXPECT_EQ(one.num_buckets(), 1u);
    train::OverlapAllreducer tiny(*net, comm, 4, AllreduceAlgo::kRing);
    EXPECT_EQ(tiny.num_buckets(), n);  // one float per bucket
    train::OverlapAllreducer big(*net, comm, 1 << 26, AllreduceAlgo::kRing);
    EXPECT_EQ(big.num_buckets(), 1u);  // larger than the whole model
  });
}

TEST(OverlapAllreducer, RejectsBadBucketBytes) {
  SimCluster cluster(1);
  EXPECT_THROW(cluster.run([&](Communicator& comm) {
                 auto net = det_model();
                 Rng init(7);
                 net->init(init);
                 train::OverlapAllreducer bad(*net, comm, 3,
                                              AllreduceAlgo::kRing);
               }),
               std::invalid_argument);
}

// ---------------- end-to-end determinism: overlap on == off ----------------

// World sizes {1, 2, 4, 8} x bucket sizes {smaller than one layer, mid,
// larger than the whole model}: the acceptance bar from the issue.
class OverlapDeterminism
    : public ::testing::TestWithParam<std::tuple<int, std::int64_t>> {};

TEST_P(OverlapDeterminism, SyncTrainingBitIdenticalOnVsOff) {
  const auto [world, bucket_bytes] = GetParam();
  data::SyntheticImageNet ds(tiny_data_cfg());
  optim::ConstantLr lr(0.02);

  auto run = [&](bool overlap_on) {
    train::TrainOptions options;
    options.global_batch = 32;
    options.epochs = 2;
    options.bucket_bytes = bucket_bytes;
    options.overlap_comm = overlap_on;
    return train::train_sync_data_parallel(
        [] { return det_model(); },
        [] {
          return std::make_unique<optim::Sgd>(
              optim::SgdConfig{.momentum = 0.9, .weight_decay = 0.0005});
        },
        lr, ds, options, world, AllreduceAlgo::kRing);
  };

  const auto off = run(false);
  const auto on = run(true);

  ASSERT_FALSE(off.final_weights.empty());
  // The non-negotiable bar: bit-identical weights.
  EXPECT_EQ(on.final_weights, off.final_weights);
  // And a bit-identical loss/accuracy trajectory.
  ASSERT_EQ(on.result.epochs.size(), off.result.epochs.size());
  for (std::size_t e = 0; e < off.result.epochs.size(); ++e) {
    EXPECT_EQ(on.result.epochs[e].train_loss, off.result.epochs[e].train_loss);
    EXPECT_EQ(on.result.epochs[e].train_acc, off.result.epochs[e].train_acc);
  }
  EXPECT_EQ(on.iterations, off.iterations);
  // Identical buckets on the wire: same payload bytes moved (message counts
  // match too because bucket boundaries match).
  EXPECT_EQ(on.traffic.bytes, off.traffic.bytes);
  EXPECT_EQ(on.traffic.messages, off.traffic.messages);
}

INSTANTIATE_TEST_SUITE_P(
    WorldsAndBuckets, OverlapDeterminism,
    ::testing::Combine(::testing::Values(1, 2, 4, 8),
                       // 128 B < one conv layer; 4 KiB mid; 1 GiB > model;
                       // 0 = the single-bucket convention.
                       ::testing::Values(std::int64_t{128},
                                         std::int64_t{4096},
                                         std::int64_t{1} << 30,
                                         std::int64_t{0})));

TEST(OverlapDeterminism, HoldsAcrossSeedsWithDropout) {
  data::SyntheticImageNet ds(tiny_data_cfg());
  optim::ConstantLr lr(0.02);
  for (std::uint64_t seed : {7ull, 1234ull}) {
    auto run = [&](bool overlap_on) {
      train::TrainOptions options;
      options.global_batch = 32;
      options.epochs = 1;
      options.init_seed = seed;
      options.bucket_bytes = 512;
      options.overlap_comm = overlap_on;
      return train::train_sync_data_parallel(
          [] { return dropout_model(); },
          [] { return std::make_unique<optim::Sgd>(); }, lr, ds, options, 4,
          AllreduceAlgo::kRing);
    };
    const auto off = run(false);
    const auto on = run(true);
    ASSERT_FALSE(off.final_weights.empty()) << "seed=" << seed;
    EXPECT_EQ(on.final_weights, off.final_weights) << "seed=" << seed;
  }
}

TEST(OverlapDeterminism, ExposedCommAccountingIsSane) {
  data::SyntheticImageNet ds(tiny_data_cfg());
  optim::ConstantLr lr(0.02);
  train::TrainOptions options;
  options.global_batch = 32;
  options.epochs = 1;
  options.bucket_bytes = 1024;
  options.overlap_comm = true;
  const auto on = train::train_sync_data_parallel(
      [] { return det_model(); }, [] { return std::make_unique<optim::Sgd>(); },
      lr, ds, options, 4, AllreduceAlgo::kRing);
  EXPECT_GT(on.total_comm_ns, 0);
  EXPECT_GE(on.exposed_comm_ns, 0);
  options.overlap_comm = false;
  const auto off = train::train_sync_data_parallel(
      [] { return det_model(); }, [] { return std::make_unique<optim::Sgd>(); },
      lr, ds, options, 4, AllreduceAlgo::kRing);
  EXPECT_GT(off.total_comm_ns, 0);
  EXPECT_EQ(off.exposed_comm_ns, off.total_comm_ns);  // nothing hidden
}

// ---------------- fault injection through the async path ----------------

TEST(OverlapFault, CrashRecoveryStaysBitExact) {
  // A rank crash mid-run with overlap on: the fault-tolerant driver must
  // restart from checkpoint and land on exactly the weights of an
  // uninterrupted overlap run.
  data::SyntheticImageNet ds(tiny_data_cfg());
  optim::ConstantLr lr(0.02);
  const int world = 4;

  auto make_options = [&](const char* path) {
    train::FaultTolerantOptions fo;
    fo.train.global_batch = 32;
    fo.train.epochs = 2;
    fo.train.bucket_bytes = 512;
    fo.train.overlap_comm = true;
    fo.checkpoint_every = 4;
    fo.checkpoint_path = path;
    fo.recv_timeout = std::chrono::milliseconds(2000);
    return fo;
  };

  const auto clean = train::train_sync_fault_tolerant(
      [] { return det_model(); }, [] { return std::make_unique<optim::Sgd>(); },
      lr, ds, make_options("overlap_ft_clean.bin"), world);
  ASSERT_EQ(clean.restarts, 0);

  comm::FaultPlan plan;
  plan.crash_rank = 2;
  plan.crash_at_send = 40;  // mid-run, inside the bucket pipeline
  auto injector = std::make_shared<comm::FaultInjector>(plan, world);
  const auto faulted = train::train_sync_fault_tolerant(
      [] { return det_model(); }, [] { return std::make_unique<optim::Sgd>(); },
      lr, ds, make_options("overlap_ft_crash.bin"), world, injector);

  EXPECT_GE(faulted.restarts, 1);
  EXPECT_EQ(faulted.faults.crashes, 1);
  ASSERT_FALSE(clean.final_weights.empty());
  EXPECT_EQ(faulted.final_weights, clean.final_weights);  // bit-identical
  EXPECT_EQ(faulted.iterations, clean.iterations);
}

TEST(OverlapFault, DropFaultAbortsCleanlyWithNoRestartBudget) {
  // With max_restarts = 0, a lossy network must surface the fault to the
  // caller (CommTimeout or the aggregated ClusterAborted) — not hang, not
  // half-apply an update.
  data::SyntheticImageNet ds(tiny_data_cfg());
  optim::ConstantLr lr(0.02);
  const int world = 2;
  train::FaultTolerantOptions fo;
  fo.train.global_batch = 32;
  fo.train.epochs = 1;
  fo.train.bucket_bytes = 256;
  fo.train.overlap_comm = true;
  fo.checkpoint_path = "overlap_ft_drop.bin";
  fo.max_restarts = 0;
  fo.recv_timeout = std::chrono::milliseconds(250);

  comm::FaultPlan plan;
  plan.drop_prob = 1.0;
  auto injector = std::make_shared<comm::FaultInjector>(plan, world);
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_THROW(train::train_sync_fault_tolerant(
                   [] { return det_model(); },
                   [] { return std::make_unique<optim::Sgd>(); }, lr, ds, fo,
                   world, injector),
               comm::FaultError);
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_LT(std::chrono::duration_cast<std::chrono::seconds>(elapsed).count(),
            30);
  std::remove("overlap_ft_drop.bin");
}

TEST(OverlapFault, DelayFaultIsValuePreserving) {
  // Stragglers reorder wall-clock, never bits: a delayed-message run with
  // overlap must equal the fault-free run exactly.
  data::SyntheticImageNet ds(tiny_data_cfg());
  optim::ConstantLr lr(0.02);
  const int world = 2;

  auto run = [&](std::shared_ptr<comm::FaultInjector> injector,
                 const char* path) {
    train::FaultTolerantOptions fo;
    fo.train.global_batch = 32;
    fo.train.epochs = 1;
    fo.train.bucket_bytes = 512;
    fo.train.overlap_comm = true;
    fo.checkpoint_path = path;
    fo.recv_timeout = std::chrono::milliseconds(5000);
    return train::train_sync_fault_tolerant(
        [] { return det_model(); },
        [] { return std::make_unique<optim::Sgd>(); }, lr, ds, fo, world,
        std::move(injector));
  };

  const auto clean = run(nullptr, "overlap_ft_delay_clean.bin");
  comm::FaultPlan plan;
  plan.delay_prob = 0.2;
  plan.delay = std::chrono::milliseconds(2);
  const auto delayed = run(std::make_shared<comm::FaultInjector>(plan, world),
                           "overlap_ft_delay.bin");
  EXPECT_EQ(delayed.restarts, 0);
  EXPECT_GT(delayed.faults.delayed, 0);
  EXPECT_EQ(delayed.final_weights, clean.final_weights);
}

}  // namespace
}  // namespace minsgd

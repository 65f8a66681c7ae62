#include "train/fault_tolerant.hpp"

#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "core/check.hpp"
#include "data/loader.hpp"
#include "train/checkpoint.hpp"
#include "train/sync_replica.hpp"

namespace minsgd::train {
namespace {

bool file_exists(const std::string& path) {
  return std::ifstream(path, std::ios::binary).good();
}

}  // namespace

void FaultTolerantOptions::validate() const {
  MINSGD_CHECK(max_restarts >= 0, "FaultTolerantOptions: max_restarts ",
               max_restarts, " < 0");
  MINSGD_CHECK(recv_timeout.count() >= 0,
               "FaultTolerantOptions: recv_timeout < 0");
}

FaultTolerantResult train_sync_fault_tolerant(
    const std::function<std::unique_ptr<nn::Network>()>& model_factory,
    const std::function<std::unique_ptr<optim::Optimizer>()>& opt_factory,
    const optim::LrSchedule& schedule, const data::SyntheticImageNet& dataset,
    const FaultTolerantOptions& options, int world,
    std::shared_ptr<comm::FaultInjector> injector) {
  const TrainOptions& topt = options.train;
  validate_sync_options(topt, topt.global_batch, world,
                        "train_sync_fault_tolerant");
  if (options.checkpoint_every < 1) {
    throw std::invalid_argument(
        "train_sync_fault_tolerant: checkpoint_every < 1");
  }
  if (options.checkpoint_path.empty()) {
    throw std::invalid_argument(
        "train_sync_fault_tolerant: empty checkpoint_path");
  }
  options.validate();
  const std::string& path = options.checkpoint_path;
  std::remove(path.c_str());  // only this run's own checkpoints resume

  FaultTolerantResult out;
  RunLog log;

  auto rank_fn = [&](comm::Communicator& comm) {
    const bool root = comm.rank() == 0;
    auto net = model_factory();
    auto opt = opt_factory();
    SyncReplica replica(*net, *opt, topt, comm::AllreduceAlgo::kRing);
    data::ShardedLoader loader(dataset, topt.global_batch, comm.rank(), world,
                               topt.augment);
    replica.attach(comm, loader);
    const std::int64_t ipe = loader.iterations_per_epoch();
    std::int64_t start = 0;
    RngState rng = replica.init_rng_state();
    if (file_exists(path)) {
      // Every rank restores the identical replica the cluster had after the
      // checkpointed step; the next iteration then proceeds exactly as the
      // uninterrupted run would have.
      TrainCheckpoint meta;
      load_train_checkpoint(path, replica.net(), replica.opt(), meta, world,
                            topt.global_batch);
      start = meta.global_iter;
      rng = meta.rng;
    }
    if (root) {
      // Records of epochs the restart replays are rebooked from scratch: a
      // resumed epoch's averages cover only its replayed tail (weights are
      // exact; per-epoch averages are best-effort).
      std::lock_guard lk(log.mu);
      log.windows.erase(log.windows.lower_bound(start / ipe),
                        log.windows.end());
    }
    // Rank 0 alone checkpoints: synchronous SGD keeps every rank's replica
    // identical after the step.
    const auto checkpoint = [&](std::int64_t gi) {
      if ((gi + 1) % options.checkpoint_every != 0 || !root) return;
      TrainCheckpoint meta;
      meta.global_iter = gi + 1;
      meta.epoch = (gi + 1) / ipe;
      meta.iter = (gi + 1) % ipe;
      meta.world = world;
      meta.global_batch = topt.global_batch;
      meta.rng = rng;
      save_train_checkpoint(path, replica.net(), replica.opt(), meta);
      ++out.checkpoints_written;  // rank 0 only; read after the join
    };
    run_fixed_world(replica, {schedule, dataset, topt, ipe, topt.epochs * ipe},
                    start, log, checkpoint);
  };

  for (int attempt = 0;; ++attempt) {
    comm::SimCluster cluster(
        comm::ClusterOptions{world, topt.compute_threads});
    if (options.recv_timeout.count() > 0) {
      cluster.set_recv_timeout(options.recv_timeout);
    }
    if (injector) cluster.set_fault_injector(injector);
    const auto account = [&] {
      out.traffic += cluster.total_traffic();
      publish_run_metrics(cluster, log.exposed_ns, log.total_ns);
      log.exposed_ns = log.total_ns = 0;
    };
    try {
      cluster.run(rank_fn);
      account();
      break;
    } catch (const comm::FaultError& e) {
      account();
      ++out.restarts;
      if (out.restarts > options.max_restarts) throw;
      if (topt.verbose) {
        std::printf("fault (attempt %d): %s\n  -> restarting from %s\n",
                    attempt, e.what(),
                    file_exists(path) ? path.c_str() : "scratch");
        std::fflush(stdout);
      }
    }
  }

  if (injector) out.faults = injector->total();
  out.result = log.result();
  out.final_weights = std::move(log.final_weights);
  out.iterations = log.iterations;
  std::remove(path.c_str());
  return out;
}

}  // namespace minsgd::train

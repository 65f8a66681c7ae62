#include "train/trainer.hpp"

#include <utility>

#include "train/sync_replica.hpp"

namespace minsgd::train {
namespace {

// What one rank trains: the body runs the rank's replica on the network and
// optimizer it is handed.
using RankBody = std::function<void(nn::Network&, optim::Optimizer&)>;

// The fixed-world run both drivers share: `world` rank threads, each
// running run_fixed_world over one SyncReplica. `with_model` hands each
// rank's body its network and optimizer — the only thing the drivers vary.
DistResult run_fixed(const std::function<void(const RankBody&)>& with_model,
                     const optim::LrSchedule& schedule,
                     const data::SyntheticImageNet& dataset,
                     const TrainOptions& options, int world,
                     comm::AllreduceAlgo algo, const char* who) {
  validate_sync_options(options, options.global_batch, world, who);
  // The P rank threads split one global intra-op budget between them
  // instead of oversubscribing P copies of a process-wide pool.
  comm::SimCluster cluster(
      comm::ClusterOptions{world, options.compute_threads});
  RunLog log;
  cluster.run([&](comm::Communicator& comm) {
    with_model([&](nn::Network& net, optim::Optimizer& opt) {
      SyncReplica replica(net, opt, options, algo);
      data::ShardedLoader loader(dataset, options.global_batch, comm.rank(),
                                 world, options.augment);
      replica.attach(comm, loader);
      const std::int64_t ipe = loader.iterations_per_epoch();
      run_fixed_world(replica, {schedule, dataset, options, ipe,
                                options.epochs * ipe},
                      0, log);
    });
  });

  DistResult out;
  out.result = log.result();
  out.iterations = log.iterations;
  out.final_weights = std::move(log.final_weights);
  out.exposed_comm_ns = log.exposed_ns;
  out.total_comm_ns = log.total_ns;
  out.traffic = cluster.total_traffic();
  publish_run_metrics(cluster, out.exposed_comm_ns, out.total_comm_ns);
  return out;
}

}  // namespace

TrainResult train_single(nn::Network& net, optim::Optimizer& opt,
                         const optim::LrSchedule& schedule,
                         const data::SyntheticImageNet& dataset,
                         const TrainOptions& options) {
  return run_fixed([&](const RankBody& body) { body(net, opt); }, schedule,
                   dataset, options, /*world=*/1, comm::AllreduceAlgo::kRing,
                   "train_single")
      .result;
}

DistResult train_sync_data_parallel(
    const std::function<std::unique_ptr<nn::Network>()>& model_factory,
    const std::function<std::unique_ptr<optim::Optimizer>()>& opt_factory,
    const optim::LrSchedule& schedule, const data::SyntheticImageNet& dataset,
    const TrainOptions& options, int world, comm::AllreduceAlgo algo) {
  // Every rank builds an identical replica (same init seed).
  return run_fixed(
      [&](const RankBody& body) {
        auto net = model_factory();
        auto opt = opt_factory();
        body(*net, *opt);
      },
      schedule, dataset, options, world, algo, "train_sync_data_parallel");
}

}  // namespace minsgd::train

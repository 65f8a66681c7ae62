#include "train/trainer.hpp"

#include <cmath>

#include "nn/loss.hpp"
#include "obs/flight.hpp"
#include "obs/trace.hpp"
#include "train/sync_replica.hpp"

namespace minsgd::train {

TrainResult train_single(nn::Network& net, optim::Optimizer& opt,
                         const optim::LrSchedule& schedule,
                         const data::SyntheticImageNet& dataset,
                         const TrainOptions& options) {
  Rng init_rng(options.init_seed);
  net.init(init_rng);
  // The single-process trainer owns the whole intra-op budget.
  const ComputeContext ctx(options.compute_threads != 0
                               ? options.compute_threads
                               : ComputeContext::default_threads());
  data::ShardedLoader loader(dataset, options.global_batch, 0, 1,
                             options.augment);
  nn::SoftmaxCrossEntropy loss;
  auto params = net.params();

  TrainResult res;
  const std::int64_t iters = loader.iterations_per_epoch();
  Tensor logits, dlogits, dx;
  data::Batch batch;  // reused: steady-state loads allocate nothing
  double first_loss = -1.0;
  std::int64_t global_iter = 0;

  for (std::int64_t epoch = 0; epoch < options.epochs; ++epoch) {
    double epoch_loss = 0.0;
    std::int64_t epoch_correct = 0;
    const double epoch_lr = schedule.lr(global_iter);
    for (std::int64_t it = 0; it < iters; ++it, ++global_iter) {
      net.zero_grad();
      {
        obs::ScopedSpan sp("phase.data", obs::cat::kPhase);
        loader.load_train_into(epoch, it, ctx, batch);
      }
      nn::LossResult lres;
      {
        obs::ScopedSpan sp("phase.forward", obs::cat::kPhase);
        net.forward(batch.x, logits, /*training=*/true, ctx);
        lres = loss.forward_backward(logits, batch.labels, &dlogits, ctx);
      }
      {
        obs::ScopedSpan sp("phase.backward", obs::cat::kPhase);
        net.backward(batch.x, logits, dlogits, dx, ctx);
      }
      const double step_loss = lres.loss;
      epoch_correct += lres.correct;
      {
        obs::ScopedSpan sp("phase.step", obs::cat::kPhase);
        opt.step(params, schedule.lr(global_iter), ctx);
        MINSGD_FLIGHT(obs::FlightKind::kStep, obs::FlightOp::kNone, 0, 0, 0,
                      0, global_iter);
      }
      epoch_loss += step_loss;
      ++res.iterations_run;
      if (first_loss < 0) first_loss = step_loss;
      if (options.detect_divergence &&
          (!std::isfinite(step_loss) ||
           step_loss > kDivergenceFactor * first_loss)) {
        res.diverged = true;
        EpochRecord rec{epoch, epoch_lr, step_loss,
                        0.0, evaluate(net, dataset, 256, ctx)};
        res.epochs.push_back(rec);
        if (options.verbose) print_epoch(rec);
        finalize(res);
        return res;
      }
    }
    EpochRecord rec;
    rec.epoch = epoch;
    rec.lr = epoch_lr;
    rec.train_loss = epoch_loss / static_cast<double>(iters);
    rec.train_acc =
        static_cast<double>(epoch_correct) /
        static_cast<double>(iters * options.global_batch);
    const bool eval_now = (epoch % options.eval_every == 0) ||
                          (epoch + 1 == options.epochs);
    rec.test_acc = eval_now ? evaluate(net, dataset, 256, ctx) : 0.0;
    res.epochs.push_back(rec);
    if (options.verbose) print_epoch(rec);
  }
  finalize(res);
  return res;
}

DistResult train_sync_data_parallel(
    const std::function<std::unique_ptr<nn::Network>()>& model_factory,
    const std::function<std::unique_ptr<optim::Optimizer>()>& opt_factory,
    const optim::LrSchedule& schedule, const data::SyntheticImageNet& dataset,
    const TrainOptions& options, int world, comm::AllreduceAlgo algo) {
  validate_sync_options(options, options.global_batch, world,
                        "train_sync_data_parallel");
  // The P rank threads split one global intra-op budget between them
  // instead of oversubscribing P copies of a process-wide pool.
  comm::SimCluster cluster(
      comm::ClusterOptions{world, options.compute_threads});
  RunLog log;
  cluster.run([&](comm::Communicator& comm) {
    // Every rank builds an identical replica (same init seed).
    SyncReplica replica(model_factory, opt_factory, options, algo);
    data::ShardedLoader loader(dataset, options.global_batch, comm.rank(),
                               world, options.augment);
    replica.attach(comm, loader);
    const std::int64_t ipe = loader.iterations_per_epoch();
    run_fixed_world(replica, {schedule, dataset, options, ipe,
                              options.epochs * ipe},
                    0, log);
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

}  // namespace minsgd::train

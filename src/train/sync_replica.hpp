// SyncReplica: the one synchronous data-parallel step engine (DESIGN.md,
// "Synchronous step engine").
//
// Every trainer — train_single (one rank), fixed, fault-tolerant and
// elastic — builds one SyncReplica per rank and differs only in which
// iterations it runs over which communicator. The replica borrows the
// rank's network (which owns its execution plan) and optimizer, and owns
// the loss, activation tensors, batch storage and gradient reducer; the
// allreduce, the overlap buckets and the optimizer all work in place on
// the network's flat gradient storage (Network::grad_span). attach() binds
// it to one communicator generation; step() is the paper's iteration
// (Figure 2(a), master replaced by an allreduce). run_iteration() adds the
// bookkeeping the drivers share: divergence guard, per-window records,
// window-end eval.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <vector>

#include "comm/cluster.hpp"
#include "data/loader.hpp"
#include "nn/loss.hpp"
#include "tensor/rng.hpp"
#include "train/trainer.hpp"

namespace minsgd::train {

class OverlapAllreducer;

/// Throws std::invalid_argument, before any cluster thread starts, on:
/// world <= 0; global_batch % world; eval_every < 1; bad bucket_bytes. The
/// message starts with `who`, the calling driver's name.
void validate_sync_options(const TrainOptions& options,
                           std::int64_t global_batch, int world,
                           const char* who);

/// Adds a finished cluster's wire traffic (`train.traffic.*`, total and per
/// op) and gradient-allreduce time (`train.allreduce.{exposed,total}_ns`)
/// to the metrics registry, so they outlive the cluster. Counters sum, so a
/// driver that restarts calls it once per cluster.
void publish_run_metrics(const comm::SimCluster& cluster,
                         std::int64_t exposed_ns, std::int64_t total_ns);

class SyncReplica {
 public:
  /// Borrows `net` and `opt` (both must outlive the replica) and
  /// initializes `net` from options.init_seed, so every rank (and every
  /// restart) starts from identical weights.
  SyncReplica(nn::Network& net, optim::Optimizer& opt,
              const TrainOptions& options, comm::AllreduceAlgo algo);
  ~SyncReplica();
  SyncReplica(const SyncReplica&) = delete;
  SyncReplica& operator=(const SyncReplica&) = delete;

  /// Binds to one communicator generation and its shard loader (both must
  /// outlive the binding), installing the overlap reducer if configured.
  void attach(comm::Communicator& comm, const data::ShardedLoader& loader);
  /// Drops the binding; joins the overlap comm worker first. Idempotent.
  void detach();

  struct StepStats {
    float loss = 0.0f;     // rank sum of the local mean losses
    float correct = 0.0f;  // rank sum of top-1 hits
  };
  /// One iteration on batch `it` of `epoch` at `lr`: load, forward + loss,
  /// backward, reduce, scale(1/world), optimizer step, kStep flight event
  /// (labelled `global_iter`), 2-float stats allreduce. Collective. Reduce
  /// and scale run in place on net().grad_span(): no staging copy.
  StepStats step(std::int64_t epoch, std::int64_t it, double lr,
                 std::int64_t global_iter);

  /// Divergence guard over a step's rank-mean loss. The first call sets the
  /// baseline, rounded through float so a baseline shipped to an elastic
  /// joiner compares identically. True when options.detect_divergence is on
  /// and the loss is non-finite or above kDivergenceFactor x the baseline.
  bool diverged(double mean_loss);
  std::optional<double> first_loss() const { return first_loss_; }
  void set_first_loss(std::optional<double> loss) { first_loss_ = loss; }

  /// Optimizer steps applied: advanced right after the update, so a fault
  /// later in the iteration still reports the replica's true position.
  std::int64_t steps_done() const { return steps_done_; }
  void set_steps_done(std::int64_t steps) { steps_done_ = steps; }

  nn::Network& net() { return net_; }
  optim::Optimizer& opt() { return opt_; }
  // The current binding; only valid while attached.
  comm::Communicator& comm() { return *comm_; }
  const data::ShardedLoader& loader() const { return *loader_; }
  /// Trainer RNG state after weight init (the v2 checkpoint's stream).
  const RngState& init_rng_state() const { return init_rng_state_; }

  /// Gradient-allreduce time summed over all steps: what step() waited on,
  /// and total collective execution. Equal unless overlap is on.
  std::int64_t exposed_comm_ns() const;
  std::int64_t total_comm_ns() const;

 private:
  std::span<float> reduce();

  TrainOptions options_;
  comm::AllreduceAlgo algo_;
  nn::Network& net_;
  optim::Optimizer& opt_;
  std::vector<nn::ParamRef> params_;
  RngState init_rng_state_;

  nn::SoftmaxCrossEntropy loss_;
  Tensor logits_, dlogits_, dx_;
  data::Batch batch_;

  comm::Communicator* comm_ = nullptr;
  const data::ShardedLoader* loader_ = nullptr;
  std::unique_ptr<OverlapAllreducer> overlap_;

  std::int64_t serial_ns_ = 0;  // serial reducer time
  std::int64_t overlap_exposed_ns_ = 0, overlap_total_ns_ = 0;  // detached
  std::optional<double> first_loss_;
  std::int64_t steps_done_ = 0;
};

/// A run's records, written by each generation's rank 0, one per window of
/// `window_iters` global iterations: an epoch for the fixed-world drivers,
/// a base-geometry epoch for elastic (so membership histories line up).
struct RunLog {
  struct Window {
    double lr = 0.0;  // schedule at the window's first iteration
    double loss_sum = 0.0;
    std::int64_t correct = 0;
    std::int64_t iters = 0;     // iterations booked
    std::int64_t examples = 0;  // global batches summed over booked iters
    double test_acc = 0.0;
  };
  std::mutex mu;
  std::map<std::int64_t, Window> windows;
  std::vector<float> final_weights;
  std::int64_t iterations = 0;
  bool diverged = false;
  std::int64_t exposed_ns = 0, total_ns = 0;  // the recording rank's

  /// One rank's end of a run (or of a faulted attempt): final weights,
  /// position, divergence and reducer time. Rank 0 records in the fixed and
  /// fault-tolerant trainers, the first member to finish in the elastic one.
  void finish(SyncReplica& replica, std::int64_t gi, bool diverged_run);
  /// One EpochRecord per window, averaged over the steps booked in it;
  /// iterations_run is the logical step count `iterations`. The two differ
  /// when a step is applied but not booked: an elastic rank 0 that lost the
  /// step's last message receives its result through the post-commit state
  /// sync, and a fault-tolerant restart drops the replayed windows' records.
  TrainResult result();
};

struct RunShape {
  const optim::LrSchedule& schedule;
  const data::SyntheticImageNet& dataset;
  const TrainOptions& options;
  std::int64_t window_iters = 1;
  std::int64_t total_iters = 0;
  bool print_world = false;  // verbose lines name the window and world
};

/// Steps global iteration `gi` (batch gi / ipe, gi % ipe of the attached
/// loader) at schedule.lr(gi), books it on rank 0, calls after_step(gi),
/// then advances `gi` and latches `diverged` — before the window end, so a
/// fault there leaves both describing the applied step. At a window end,
/// the run's end or divergence, rank 0 evaluates and all ranks barrier.
void run_iteration(SyncReplica& replica, const RunShape& shape, RunLog& log,
                   std::int64_t& gi, bool& diverged,
                   const std::function<void(std::int64_t)>& after_step = {});

/// The fixed-world rank loop: run_iteration from `start` until the end or
/// divergence, then log.finish() on rank 0 — also when a fault unwinds the
/// loop, so a restarting driver still sees each attempt's reducer time.
void run_fixed_world(SyncReplica& replica, const RunShape& shape,
                     std::int64_t start, RunLog& log,
                     const std::function<void(std::int64_t)>& after_step = {});

}  // namespace minsgd::train

// Fault-tolerant synchronous data-parallel training.
//
// train_sync_data_parallel assumes a perfect cluster: one crashed rank
// unwinds every peer and a rerun starts from scratch. This driver runs the
// fixed trainer's rank loop over the same step engine (train/sync_replica
// .hpp) — the identical per-iteration math, so a no-fault run is bit-equal
// to the plain sync trainer — and adds two things:
//
//   * a checkpoint hook: every `checkpoint_every` global iterations, rank 0
//     atomically writes a v2 train checkpoint (weights + optimizer +
//     schedule position + RNG; see train/checkpoint.hpp) — legal because
//     synchronous SGD keeps every rank's replica identical after the step.
//     The file belongs to one run: a stale one at `checkpoint_path` is
//     removed at start, and the run's own is removed after it succeeds;
//   * a restart driver: when a rank dies (injected RankFailure, CommTimeout,
//     or the cooperative ClusterAborted unwind), it catches the FaultError,
//     tears the cluster and its replicas down, builds a fresh cluster, and
//     resumes all ranks from the last checkpoint.
//
// Batches are a pure function of (epoch, iteration) and the checkpoint
// restores the full trajectory state, so the recovered run's final weights
// are bit-identical to an uninterrupted run's; the integration tests assert
// exactly that. Traffic and allreduce-time metrics sum over attempts.
//
// Only FaultError and its subclasses trigger a restart; logic errors (bad
// arguments, shape mismatches) propagate immediately. Gradients are
// allreduced with the ring algorithm, as in the elastic driver.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "comm/cluster.hpp"
#include "comm/fault.hpp"
#include "data/synthetic.hpp"
#include "nn/network.hpp"
#include "optim/optimizer.hpp"
#include "optim/schedule.hpp"
#include "train/trainer.hpp"

namespace minsgd::train {

struct FaultTolerantOptions {
  TrainOptions train;
  /// Global iterations between checkpoints (>= 1).
  std::int64_t checkpoint_every = 8;
  /// Where rank 0 writes the v2 train checkpoint.
  std::string checkpoint_path = "minsgd_ft_checkpoint.bin";
  /// Restart budget: the run fails (rethrowing the last fault) once more
  /// than this many restarts were needed.
  int max_restarts = 4;
  /// Recv deadline for the underlying cluster; fault scenarios with message
  /// loss need a finite value or survivors wait forever. Zero means "leave
  /// it to the cluster default" (which arms itself when an injector is
  /// installed).
  std::chrono::milliseconds recv_timeout{0};

  /// MINSGD_CHECK the self-contained budget fields (max_restarts,
  /// recv_timeout): a negative budget is a programming error, not
  /// recoverable input. Dataset/world-dependent geometry stays
  /// std::invalid_argument in train_sync_fault_tolerant.
  void validate() const;
};

struct FaultTolerantResult {
  TrainResult result;               // merged epoch records (rank 0)
  std::vector<float> final_weights; // rank 0 replica after the last step
  std::int64_t iterations = 0;      // logical global iterations completed
  int restarts = 0;                 // cluster rebuilds after faults
  std::int64_t checkpoints_written = 0;
  comm::TrafficStats traffic;       // summed over all attempts
  comm::FaultStats faults;          // injector totals (zeros if none)
};

/// Synchronous data-parallel training that survives rank failures by
/// checkpoint/restart. `injector` (optional) perturbs the send path; it is
/// shared with the cluster(s) so a one-shot crash stays consumed across
/// restarts, modeling a failed-and-replaced node.
FaultTolerantResult train_sync_fault_tolerant(
    const std::function<std::unique_ptr<nn::Network>()>& model_factory,
    const std::function<std::unique_ptr<optim::Optimizer>()>& opt_factory,
    const optim::LrSchedule& schedule, const data::SyntheticImageNet& dataset,
    const FaultTolerantOptions& options, int world,
    std::shared_ptr<comm::FaultInjector> injector = nullptr);

}  // namespace minsgd::train

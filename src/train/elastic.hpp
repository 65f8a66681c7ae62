// Elastic synchronous data-parallel training.
//
// train_sync_elastic is a driver over the shared synchronous step engine
// (train/sync_replica.hpp) wired into dynamic world membership
// (comm/membership.hpp): ranks leave on schedule or by crashing, standby
// ranks join mid-run, and the surviving members keep training without a
// full-cluster restart. Each rank's SyncReplica outlives generations; the
// step math, trace spans and per-window records are the fixed trainer's.
// What the driver adds is elastic. Every membership change — a scheduled
// resize, a fault or crash survivor re-forming, a joiner's admission — goes
// through one reconfiguration routine (the coordinator commits a view
// without sending a message; the rank adopts it and syncs state, and a
// failed sync re-forms, at most ElasticCoordinator::kMaxRounds times in a
// row) which
//
//   * re-forms the Communicator over the committed view (fresh generation
//     tag prefix, so stale in-flight ops can never collide) and re-attaches
//     the replica to it,
//   * re-shards the dataset deterministically from the new (rank, world)
//     — ShardedLoader batches are a pure function of geometry, so the
//     post-change sample order equals a fixed-world run of the new size,
//   * rescales the effective global batch (local_batch x world) and the
//     learning rate per the linear scaling rule (optim::ElasticLrScale),
//   * re-splits the cluster's intra-op thread budget over the members, and
//   * syncs state with a broadcast after every commit: the authoritative
//     member serializes the v2 train checkpoint (weights + optimizer +
//     schedule position + RNG streams) and broadcasts the bytes over the
//     new generation's channel, so a joiner or a laggard is bit-identical
//     before its next step. This broadcast is the new generation's first
//     traffic, so it is also the check that the generation is live.
//
// A rank that has applied the last step finishes even if a fault hits
// after it (the closing barrier), and once one member finished nothing
// commits, so a straggler never re-forms a view that trains nothing. The
// first member to finish records the result.
//
// Determinism contracts (enforced by tests/test_elastic.cpp):
//   * no events, no faults  ==> final weights bit-equal
//     train_sync_data_parallel at the same geometry;
//   * a shrink at step k    ==> final weights bit-equal a fixed-(world-1)
//     elastic run resumed from the pre-shrink state (survivor shards and
//     the rescaled LR depend only on the committed view, not on which
//     rank left).
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "comm/fault.hpp"
#include "comm/membership.hpp"
#include "train/trainer.hpp"

namespace minsgd::train {

struct ElasticOptions {
  /// Base trainer knobs. Interpreted fields: augment, init_seed,
  /// detect_divergence, verbose, bucket_bytes,
  /// overlap_comm, compute_threads, eval_every (in windows), epochs (used
  /// to derive total_iterations when it is 0). global_batch is ignored —
  /// the elastic invariant is a fixed *local* batch, so the global batch is
  /// local_batch x live world.
  TrainOptions train;

  /// Per-member batch share, constant across resizes.
  std::int64_t local_batch = 8;
  /// Members at generation 0 (physical ranks [0, initial_world)).
  int initial_world = 2;
  /// Cluster size: physical ranks [initial_world, max_world) start as
  /// standby joiner slots.
  int max_world = 4;

  /// Optimizer steps to run. 0 derives train.epochs worth of iterations at
  /// the base geometry: epochs * (train_size / base batch).
  std::int64_t total_iterations = 0;
  /// Reference batch for the linear LR scaling rule. 0 means
  /// initial_world * local_batch; a resumed continuation run must pass the
  /// original run's base so the rule scales against the same anchor.
  std::int64_t base_global_batch = 0;

  /// Scheduled joins/leaves, consumed in iteration order.
  std::vector<comm::ElasticEvent> events;

  /// Recv deadline for *training* collectives. 0 keeps the cluster default
  /// (block forever without an injector; 30 s with one). Fault-injected
  /// elastic runs want this low: a dropped message then costs one
  /// CommTimeout -> reconfigure -> retry, not a long stall. The gradient
  /// allreduce is always the ring; the reconfiguration limits are
  /// ElasticCoordinator's constants.
  std::chrono::milliseconds recv_timeout{0};

  /// Serialized v2 train checkpoint to resume from (ElasticResult::
  /// final_state of a previous run); empty starts fresh. Every initial
  /// member loads it locally before the first step.
  std::string resume_state;

  /// MINSGD_CHECK the self-contained fields (programming errors, not
  /// recoverable input): local_batch, worlds, recv_timeout and event
  /// targets (the coordinator trusts these). Dataset-dependent geometry is
  /// validated by train_sync_elastic with std::invalid_argument.
  void validate() const;
};

struct ElasticResult {
  /// One record per window. A window's loss and accuracy average only the
  /// steps its view's rank 0 booked: under message loss a step whose result
  /// reached rank 0 through the post-commit state sync is applied but not
  /// booked. result.iterations_run counts every applied step (== iterations).
  TrainResult result;
  /// Final member-replica weights (flatten_params layout) — the witness
  /// the determinism tests compare bitwise.
  std::vector<float> final_weights;
  /// Serialized v2 train checkpoint at exit; feed to resume_state to
  /// continue the run.
  std::string final_state;
  std::int64_t iterations = 0;  // optimizer steps completed
  int reconfigurations = 0;
  std::vector<comm::ReconfigRecord> reconfigs;
  comm::TrafficStats traffic;
  comm::FaultStats faults;
};

/// Runs the elastic sync trainer over a SimCluster of max_world threads.
/// `injector` (optional) perturbs the send path — crashes surface as
/// membership shrinks, not run failures, as long as one member survives.
/// Throws std::invalid_argument on bad geometry and comm::RankFailure /
/// std::runtime_error when the run dies (no survivors, rendezvous
/// deadline).
ElasticResult train_sync_elastic(
    const std::function<std::unique_ptr<nn::Network>()>& model_factory,
    const std::function<std::unique_ptr<optim::Optimizer>()>& opt_factory,
    const optim::LrSchedule& schedule, const data::SyntheticImageNet& dataset,
    const ElasticOptions& options,
    std::shared_ptr<comm::FaultInjector> injector = nullptr);

}  // namespace minsgd::train

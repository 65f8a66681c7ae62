// Training loops: single-process and synchronous data-parallel.
//
// Both are fixed-world runs of the one step engine
// (train/sync_replica.hpp): they start a SimCluster, give each rank one
// SyncReplica, and run every rank through the same iterations — allreduce
// the gradient sums, apply identical optimizer steps — the paper's Figure
// 2(a) with the master replaced by an allreduce. train_single is the
// one-rank run on the caller's network and optimizer; train_sync_data_parallel
// builds one replica per rank from factories. The fault-tolerant and elastic
// drivers run the same engine. A P-rank run and the one-rank run produce the
// same weights for the same global batch when the model has no per-replica
// stochastic state (no dropout, no per-replica BN batches); that is the
// "sequential consistency" property the paper leans on, and the tests assert
// it against an independent sequential loop (tests/reference_train.hpp).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>

#include "comm/cluster.hpp"
#include "data/loader.hpp"
#include "data/synthetic.hpp"
#include "nn/network.hpp"
#include "optim/optimizer.hpp"
#include "optim/schedule.hpp"
#include "train/metrics.hpp"

namespace minsgd::train {

/// A step loss above this multiple of the run's first loss counts as
/// divergence (TrainOptions::detect_divergence). A healthy run's loss falls
/// from its first value, so only a blow-up crosses it.
inline constexpr double kDivergenceFactor = 10.0;

struct TrainOptions {
  std::int64_t global_batch = 64;
  std::int64_t epochs = 5;
  std::optional<data::AugmentConfig> augment;  // weak augmentation if set
  std::uint64_t init_seed = 7;
  /// Evaluate on the test split every `eval_every` epochs (and at the end).
  std::int64_t eval_every = 1;
  /// Abort when the train loss goes non-finite or explodes beyond
  /// kDivergenceFactor x the initial loss (mirrors the paper's 0.001
  /// accuracy rows for diverged LR settings in Table 5).
  bool detect_divergence = true;
  /// Print one line per epoch to stdout.
  bool verbose = false;
  /// Gradient bucketing for the distributed trainer: the flat gradient is
  /// allreduced in buckets of at most this many bytes (0 = one bucket).
  /// This is the structure that lets real systems overlap communication
  /// with the tail of the backward pass (Das et al. 2016, Goyal et al.
  /// 2017); here it trades per-iteration message count against pipeline
  /// granularity, observable through the traffic meter.
  std::int64_t bucket_bytes = 0;
  /// Overlap gradient allreduce with backward compute: each bucket's
  /// allreduce launches on a per-rank comm worker thread the moment
  /// backward has finalized every gradient in it, and the optimizer step
  /// waits on all of them. Bucket boundaries and reduction order are
  /// identical to the serial bucketed path, so with the same seed and
  /// bucket_bytes the trained weights are bit-identical to overlap off —
  /// the overlap determinism tests enforce exactly that. Under
  /// train_single (one rank) the reduce is a no-op, so overlap only adds
  /// the comm worker.
  bool overlap_comm = false;
  /// Intra-op compute thread budget. Every driver splits it across its rank
  /// threads via ClusterOptions, so the total number of live pool workers
  /// never exceeds it; train_single's one rank gets all of it. 0 means
  /// ComputeContext::default_threads() (MINSGD_THREADS env var, else
  /// hardware concurrency). Chunking is thread-count-invariant, so trained
  /// weights are bit-identical for any value.
  std::size_t compute_threads = 0;
};

/// One-rank run of the step engine on the caller's `net` and `opt`: `net`
/// is initialized from options.init_seed and holds the trained weights on
/// return. Validates `options` as the data-parallel driver does.
TrainResult train_single(nn::Network& net, optim::Optimizer& opt,
                         const optim::LrSchedule& schedule,
                         const data::SyntheticImageNet& dataset,
                         const TrainOptions& options);

struct DistResult {
  TrainResult result;           // metrics from rank 0's replica
  comm::TrafficStats traffic;   // total wire traffic of the run
  std::int64_t iterations = 0;  // global iterations executed
  /// Rank 0's replica weights after the final step (flatten_params()
  /// layout) — the bit-exactness witness the determinism tests compare.
  std::vector<float> final_weights;
  /// Rank 0, summed over iterations: gradient-allreduce time the iteration
  /// actually waited on (exposed), and total collective execution time
  /// (hidden + exposed). Equal when overlap_comm is off; their ratio is
  /// the exposed-communication fraction bench_ablation_overlap reports.
  std::int64_t exposed_comm_ns = 0;
  std::int64_t total_comm_ns = 0;
};

/// Synchronous data-parallel trainer over `world` simulated ranks.
/// `model_factory` / `opt_factory` build one replica per rank; replicas are
/// initialized identically from options.init_seed.
DistResult train_sync_data_parallel(
    const std::function<std::unique_ptr<nn::Network>()>& model_factory,
    const std::function<std::unique_ptr<optim::Optimizer>()>& opt_factory,
    const optim::LrSchedule& schedule, const data::SyntheticImageNet& dataset,
    const TrainOptions& options, int world,
    comm::AllreduceAlgo algo = comm::AllreduceAlgo::kRing);

}  // namespace minsgd::train

// SimCluster: an in-process cluster whose ranks are OS threads.
//
// The paper's experiments ran MPI programs across up to 2048 KNL nodes; the
// semantics that matter for reproduction — SPMD execution, message passing,
// bulk-synchronous collectives — are preserved here with threads standing in
// for nodes. Traffic is metered so the analytic alpha-beta cost model
// (src/perf) can attach wall-clock estimates for any real interconnect, and
// an optional FaultInjector (src/comm/fault.hpp) perturbs the send path so
// failure handling is testable. When any rank throws, the cluster aborts
// cooperatively: peers blocked in transport or the barrier unwind with
// ClusterAborted instead of hanging the run forever.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "comm/communicator.hpp"
#include "comm/fault.hpp"
#include "comm/mailbox.hpp"
#include "comm/traffic.hpp"
#include "tensor/context.hpp"

namespace minsgd::comm {

/// A reusable, abortable rendezvous. std::barrier cannot be interrupted, so
/// a dead rank would park every peer in arrive_and_wait forever; this one
/// wakes them with ClusterAborted.
class AbortableBarrier {
 public:
  explicit AbortableBarrier(int parties);

  /// Blocks until `parties` threads arrive or abort() is called (throws
  /// ClusterAborted, including on entry after an abort).
  void arrive_and_wait();

  void abort();

  /// Re-arms after an aborted run. Only call when no thread is waiting.
  void reset();

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int parties_;
  int waiting_ = 0;
  std::uint64_t generation_ = 0;
  bool aborted_ = false;
};

/// Construction options for SimCluster. `compute_threads` is the *global*
/// intra-op thread budget the P rank threads split: each rank gets a
/// ComputeContext with max(1, compute_threads / world) threads, so the total
/// number of live worker threads never exceeds the budget regardless of
/// world size (the fix for P ranks oversubscribing one shared global pool).
/// 0 means ComputeContext::default_threads() (MINSGD_THREADS env var, else
/// hardware concurrency).
struct ClusterOptions {
  int world = 1;
  std::size_t compute_threads = 0;
};

class SimCluster {
 public:
  explicit SimCluster(int world) : SimCluster(ClusterOptions{world, 0}) {}
  explicit SimCluster(const ClusterOptions& options);

  int world() const { return world_; }

  /// The rank's private compute context (budget = max(1, global/world)).
  const ComputeContext& rank_context(int rank) const;

  /// Runs `fn(comm)` on every rank concurrently and joins. If any rank
  /// throws, the cluster aborts so every peer unwinds promptly; after the
  /// join, all rank errors are aggregated into one rethrown exception whose
  /// type is the first *root cause* by rank order (ranks that merely
  /// observed the abort are listed, but do not pick the type). May be
  /// called repeatedly: mailboxes are drained and the abort state reset on
  /// entry, so a failed run cannot poison the next one's tag matching.
  void run(const std::function<void(Communicator&)>& fn);

  /// Total / per-rank traffic since construction or reset_traffic().
  TrafficStats total_traffic() const { return meter_.total(); }
  TrafficStats rank_traffic(int rank) const {
    return meter_.rank_stats(static_cast<std::size_t>(rank));
  }
  /// Traffic attributed to one collective / all collectives with traffic.
  TrafficStats op_traffic(WireOp op) const { return meter_.op_stats(op); }
  std::vector<std::pair<std::string, TrafficStats>> traffic_by_op() const {
    return meter_.by_op();
  }
  void reset_traffic() { meter_.reset(); }

  // -- fault model ---------------------------------------------------------
  /// Installs (or clears, with nullptr) a fault injector on the send path.
  /// Shared ownership lets a recovery driver keep one injector across
  /// checkpoint-restarted clusters, so a one-shot crash stays consumed.
  /// If no recv deadline was configured, installing an injector arms the
  /// default one (kFaultRecvTimeout) — with losses possible, "block
  /// forever" is no longer an acceptable recv contract.
  void set_fault_injector(std::shared_ptr<FaultInjector> injector);
  FaultInjector* fault_injector() const { return injector_.get(); }

  /// Per-rank / total fault statistics (zeros when no injector installed).
  FaultStats rank_faults(int rank) const;
  FaultStats total_faults() const;

  /// Deadline applied to every Communicator::recv, and to a rendezvous
  /// ring step's wait for its peer's read. kNoTimeout (default) preserves
  /// the block-forever semantics of a perfect network.
  void set_recv_timeout(std::chrono::milliseconds timeout);
  std::chrono::milliseconds recv_timeout() const { return recv_timeout_; }

  static constexpr std::chrono::milliseconds kNoTimeout = Mailbox::kNoTimeout;
  static constexpr std::chrono::milliseconds kFaultRecvTimeout{30000};

  /// Cooperative abort: wakes every rank blocked in recv or barrier with
  /// ClusterAborted("<reason>"). Idempotent; the first reason wins.
  void abort(const std::string& reason);
  bool aborted() const { return aborted_.load(std::memory_order_acquire); }
  std::string abort_reason() const;

 private:
  friend class Communicator;
  friend class ElasticCoordinator;

  Mailbox& mailbox(int rank) { return *mailboxes_[static_cast<std::size_t>(rank)]; }
  TrafficMeter& meter() { return meter_; }
  AbortableBarrier& barrier_sync() { return barrier_; }

  /// Drains every mailbox, re-arms the barrier, and clears the abort state
  /// — the run() preamble, exposed to the elastic coordinator so it can
  /// re-form the transport *mid-run*. Callers must guarantee quiescence:
  /// every live rank parked outside transport calls.
  void reset_transport();

  /// Re-splits the compute budget: ranks in `active` get max(1,
  /// budget/active.size()) threads, all others idle at 1. Replaces the
  /// ComputeContext objects, so references from rank_context() are
  /// invalidated — same quiescence requirement as reset_transport().
  void reshape_compute(const std::vector<int>& active);

  int world_;
  std::size_t compute_budget_;
  std::vector<std::unique_ptr<ComputeContext>> rank_contexts_;
  std::vector<std::unique_ptr<Mailbox>> mailboxes_;
  TrafficMeter meter_;
  AbortableBarrier barrier_;
  std::shared_ptr<FaultInjector> injector_;
  std::chrono::milliseconds recv_timeout_ = kNoTimeout;
  bool timeout_configured_ = false;

  std::atomic<bool> aborted_{false};
  mutable std::mutex abort_mu_;
  std::string abort_reason_;
};

}  // namespace minsgd::comm

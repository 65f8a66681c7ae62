// Dynamic world membership: ranks join and leave a live run without restart.
//
// The checkpoint/restart driver (train/fault_tolerant.hpp) recovers from a
// fault by tearing down the whole cluster; production elastic systems
// (TorchElastic, Horovod Elastic) instead *resize*: survivors agree on a new
// member set, re-form the communicator, and keep going. This header supplies
// that machinery for the SimCluster:
//
//   * MembershipView — a generation-numbered snapshot of the live physical
//     ranks. Collectives address members by their dense index in the view
//     (their *virtual* rank), so the existing allreduce algorithms work
//     unchanged over any survivor subset.
//   * ElasticCoordinator — the control plane of a reconfiguration. It models
//     the out-of-band rendezvous service real elastic stacks lean on (etcd,
//     c10d TCPStore) with in-process shared state, and drives an in-band
//     propose/ack/commit round over the *new* generation's tag space before
//     a view is committed, so the transport of the next generation is proven
//     live end-to-end first.
//
// Why generations make stale traffic harmless: a group Communicator prefixes
// its collective tags with the view's generation (see communicator.hpp), so
// an in-flight message from generation g can never match a tag minted in
// generation g+1 — even messages duplicated by the fault injector die in the
// mailbox until the next transport reset.
//
// Epoch lifecycle (one reconfiguration):
//   1. open    — the first rank to observe a due ElasticEvent or a fault
//                opens an epoch; due joiners parked in await_admission are
//                pulled in as participants.
//   2. arrive  — every live participant parks in reconfigure(); crashed
//                ranks self-report via report_death and drop out.
//   3. propose — the lowest-numbered surviving member resets the transport
//                (mailboxes drained, barrier re-armed, abort cleared — safe
//                because every live rank is parked here), re-splits the
//                compute budget over the proposed members, and publishes
//                {generation+1, survivors ∪ joiners}.
//   4. wire    — proposed members run propose/ack/commit collectives over a
//                fresh generation-tagged Communicator under the cluster's
//                recv deadline; any fault fails the attempt.
//   5. close   — all live proposed members report the wire result; the first
//                thread past the barrier commits the view (metrics, records)
//                or bumps the attempt counter and retries from 3, failing
//                the run after kMaxRounds attempts. The close barrier is
//                what makes commit atomic: a member that lost the wire
//                round's commit message still retries with everyone else
//                instead of diverging (the classic 2PC window).
//
// The two limits are class constants: kRendezvousTimeout (the watchdog
// threshold; waits fail the run at twice it) and kMaxRounds.
//
// Failure detector: only self-reported crashes (report_death) and scheduled
// leaves shrink the view. A survivor's CommTimeout triggers an epoch but
// accuses nobody — if every rank shows up at the rendezvous, the same
// membership is re-formed under a fresh generation, which is exactly "retry
// the iteration" recovery from message loss.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

namespace minsgd::comm {

class SimCluster;

/// A generation-numbered snapshot of the live physical ranks.
struct MembershipView {
  std::int64_t generation = 0;
  std::vector<int> ranks;  // physical ranks, strictly ascending

  int world() const { return static_cast<int>(ranks.size()); }
  bool contains(int phys) const { return index_of(phys) >= 0; }
  /// Dense index of `phys` within the view — the member's *virtual* rank —
  /// or -1 when absent.
  int index_of(int phys) const {
    for (std::size_t i = 0; i < ranks.size(); ++i) {
      if (ranks[i] == phys) return static_cast<int>(i);
    }
    return -1;
  }
  /// Generation 0 over physical ranks [0, world).
  static MembershipView initial(int world);
};

enum class ElasticEventKind { kJoin, kLeave };

/// A scheduled membership change, consumed at the first reconfiguration
/// whose trigger iteration satisfies `at_iter <= iter`. Joins target a
/// standby physical rank, leaves an active one; stale events (join of an
/// already-active rank, leave of a standby) are consumed and ignored.
struct ElasticEvent {
  std::int64_t at_iter = 0;
  ElasticEventKind kind = ElasticEventKind::kLeave;
  int rank = 0;
};

/// One committed reconfiguration, as observed by the coordinator.
struct ReconfigRecord {
  std::int64_t generation = 0;   // generation of the committed view
  std::int64_t at_iter = 0;      // optimizer steps completed at resume
  int world = 0;                 // members of the committed view
  std::int64_t pause_ns = 0;     // epoch open -> commit wall clock
  int attempts = 1;              // wire rounds needed (1 = clean commit)
  bool fault_triggered = false;  // a fault report fed this epoch
};

enum class MemberRole {
  kMember,   // in the committed view: adopt it and continue training
  kStandby,  // not in the view (leaver / run over): park in await_admission
};

/// What reconfigure() hands back once a view committed (or the run failed).
struct ReconfigOutcome {
  MemberRole role = MemberRole::kStandby;
  MembershipView view;           // committed view (meaningful for kMember)
  std::int64_t resume_iter = 0;  // optimizer steps completed at resume
  int state_root = 0;            // virtual rank holding authoritative state
  bool is_root = false;          // this rank is state_root
};

/// Control plane of elastic membership. One instance is shared by every
/// rank thread of a run (it outlives individual generations); all public
/// methods are thread-safe.
class ElasticCoordinator {
 public:
  /// Watchdog threshold: an epoch open longer than this gets the cluster
  /// aborted so ranks stuck in old-generation transport can unwind and
  /// reach the rendezvous; rendezvous waits give up (and fail the run) at
  /// twice this value. 30 s is far above any healthy reconfiguration (the
  /// soak's pauses are sub-millisecond, a faulted attempt costs one recv
  /// deadline) and still ends a wedged run in a minute.
  static constexpr std::chrono::milliseconds kRendezvousTimeout{30000};
  /// Wire-round attempts per epoch before the run is declared failed; the
  /// elastic trainer bounds its state-broadcast retries by the same number.
  /// A lost message costs one attempt; eight failed attempts in one epoch
  /// mean a broken transport, and retrying longer only delays the verdict.
  static constexpr int kMaxRounds = 8;

  /// Re-splits the cluster's compute budget over `initial.ranks` (standby
  /// ranks idle at 1 thread) and publishes the initial membership metrics.
  /// `events` must already be validated against the cluster's world
  /// (ElasticOptions::validate does that for the elastic trainer).
  ElasticCoordinator(SimCluster& cluster, MembershipView initial,
                     std::vector<ElasticEvent> events);
  ~ElasticCoordinator();

  ElasticCoordinator(const ElasticCoordinator&) = delete;
  ElasticCoordinator& operator=(const ElasticCoordinator&) = delete;

  /// The committed view.
  MembershipView view() const;

  /// True when an active rank about to run global iteration `next_iter`
  /// should enter reconfigure() instead: a scheduled event is due or a
  /// fault report is pending. Cheap; polled at every iteration top.
  bool reconfig_due(std::int64_t next_iter) const;

  /// A survivor observed a fault (CommTimeout) it could not attribute to
  /// itself. Aborts the cluster so peers blocked in transport unwind, and
  /// marks a reconfiguration pending. The caller must then call
  /// reconfigure().
  void report_failure(int phys);

  /// This rank crashed (its own send threw RankFailure). Removes it from
  /// the live set; the caller must then park in await_admission — the slot
  /// models a replaced node and can be re-admitted by a later join event.
  void report_death(int phys);

  /// Parks a standby rank until it is pulled into a reconfiguration as a
  /// joiner (returns true; the caller must then call reconfigure with
  /// completed = -1) or the run ends (returns false).
  bool await_admission(int phys);

  /// Runs the reconfiguration protocol. `completed` is the number of
  /// optimizer steps this rank has applied (-1 for joiners, who have no
  /// state). Blocks until a view commits; returns this rank's role in it.
  /// Throws std::runtime_error if the rendezvous exceeds its hard deadline
  /// or the attempt budget (after marking the run failed so peers unwind),
  /// and RankFailure if this rank crashes inside the wire round (the
  /// caller must then report_death and park).
  ReconfigOutcome reconfigure(int phys, std::int64_t completed);

  /// An active rank calls this once training is complete, just before its
  /// thread exits: withdraws the rank from membership (so stragglers never
  /// rendezvous with a departed thread) and wakes every parked standby so
  /// it can exit too. Idempotent per rank.
  void finish(int phys);

  /// True when the run can no longer make progress (no survivors, attempt
  /// budget exhausted, or rendezvous deadline blown).
  bool run_failed() const;
  std::string fail_reason() const;

  /// Committed reconfigurations so far (copy; stable only after the run).
  std::vector<ReconfigRecord> records() const;
  int reconfigurations() const;

 private:
  enum class Status { kActive, kStandby, kDead };

  void open_epoch_locked(std::int64_t trigger_iter);
  void resolve_attempt_locked();
  void fail_run_locked(const std::string& reason);
  bool rendezvous_complete_locked() const;
  bool close_complete_locked() const;
  int leader_phys_locked() const;
  MembershipView make_proposal_locked() const;
  void compute_resume_locked();
  void publish_metrics_locked() const;
  ReconfigOutcome standby_outcome() const { return ReconfigOutcome{}; }
  /// In-band propose/ack/commit over the proposed generation's tag space.
  /// Returns false on any fault or payload mismatch (costs one attempt).
  bool wire_round(int phys, const MembershipView& proposal,
                  std::int64_t round_id);
  void watchdog_loop();

  template <typename Pred>
  void wait_or_throw(std::unique_lock<std::mutex>& lk,
                     std::chrono::steady_clock::time_point deadline,
                     const char* what, Pred pred);

  SimCluster& cluster_;

  mutable std::mutex mu_;
  std::condition_variable cv_;

  MembershipView view_;
  std::vector<Status> status_;  // by physical rank
  struct PendingEvent {
    ElasticEvent ev;
    bool consumed = false;
  };
  std::vector<PendingEvent> events_;
  bool failure_pending_ = false;
  bool run_done_ = false;
  bool run_failed_ = false;
  std::string fail_reason_;

  // One epoch = one reconfiguration (possibly several wire-round attempts).
  bool epoch_open_ = false;
  std::int64_t epoch_seq_ = 0;  // epochs opened, ever
  int attempt_ = 0;             // attempts within the open epoch
  std::chrono::steady_clock::time_point epoch_t0_;
  std::set<int> participants_;           // phys expected at the rendezvous
  std::map<int, std::int64_t> arrived_;  // phys -> completed steps
  std::set<int> epoch_leavers_;
  bool epoch_fault_ = false;

  // Per-attempt proposal state (valid while decision_seq_ is unchanged).
  int proposed_attempt_ = -1;
  MembershipView proposal_;
  std::int64_t resume_iter_ = 0;
  int state_root_phys_ = 0;
  std::int64_t round_id_ = 0;

  // Close barrier + decision log. decision_seq_ is monotone so a thread
  // that slept through a decision still classifies it correctly.
  std::set<int> close_reported_;
  bool wire_ok_ = true;
  std::int64_t decision_seq_ = 0;
  std::int64_t commit_seq_ = 0;  // decision_seq_ value of the last commit
  MembershipView committed_view_;
  std::int64_t committed_resume_ = 0;
  int committed_root_phys_ = 0;

  std::vector<ReconfigRecord> records_;

  // Liveness watchdog (the membership comm worker): aborts the cluster when
  // an epoch stalls so ranks stuck in old-generation transport unwind.
  bool shutdown_ = false;
  std::thread watchdog_;
};

}  // namespace minsgd::comm

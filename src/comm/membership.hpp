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
//     c10d TCPStore) with in-process shared state: a view commits as one
//     decision under the coordinator's lock and sends no message. The first
//     traffic of a new generation is the elastic trainer's state broadcast,
//     which is also its only liveness check; a fault there re-forms through
//     report_failure like any other (TorchElastic's shape: a rendezvous
//     through a store, then a new process group).
//
// Why generations make stale traffic harmless: a group Communicator prefixes
// its collective tags with the view's generation (see communicator.hpp), so
// an in-flight message from generation g can never match a tag minted in
// generation g+1 — even messages duplicated by the fault injector die in the
// mailbox until the next transport reset.
//
// Epoch lifecycle (one reconfiguration):
//   1. open    — the first rank to observe a due ElasticEvent or a fault
//                opens an epoch; joiners due by its step count that are
//                parked in await_admission are pulled in as participants.
//   2. arrive  — every live participant parks in reconfigure() with its
//                step count; crashed ranks self-report via report_death and
//                drop out.
//   3. commit  — the thread that sees the rendezvous complete applies the
//                events due by the *lowest* step count among the old view's
//                state-bearing arrivals (later ones stay pending, so no
//                event commits with a resume point before its at_iter),
//                resets the transport (mailboxes drained, barrier re-armed,
//                abort cleared — safe because every live rank is parked
//                here), re-splits the compute budget, and commits
//                {generation+1, survivors ∪ admitted joiners} with the
//                furthest-trained survivor as the state root. Once a member
//                has called finish, nothing commits: a straggler's
//                reconfigure returns kStandby.
//
// The two limits are class constants: kRendezvousTimeout (the watchdog
// threshold; waits fail the run at twice it) and kMaxRounds (the elastic
// trainer's state-sync retries).
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

/// A scheduled membership change, applied at the first reconfiguration in
/// which every state-bearing member of the old view has applied at least
/// `at_iter` steps (a join also needs its rank pulled in as a participant).
/// Joins target a standby physical rank, leaves an active one; stale events
/// (join of an already-active rank, leave of a standby) are consumed and
/// ignored.
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
  bool fault_triggered = false;  // a fault report fed this epoch
};

enum class MemberRole {
  kMember,   // in the committed view: adopt it and continue training
  kStandby,  // not in the view (leaver / run over): park in await_admission
};

/// What reconfigure() hands back once a view committed (or the run failed
/// or finished: kStandby).
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
  /// soak's pauses are sub-millisecond, a faulted state sync costs one
  /// recv deadline) and still ends a wedged run in a minute.
  static constexpr std::chrono::milliseconds kRendezvousTimeout{30000};
  /// The elastic trainer reports a rank dead once its state sync has
  /// failed more than this many times in a row. A lost message costs one
  /// re-formation; eight in a row mean a broken transport, and retrying
  /// longer only delays the verdict.
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

  /// Rendezvous and commit. `completed` is the number of optimizer steps
  /// this rank has applied (-1 for joiners, who have no state). Blocks
  /// until a view commits and returns this rank's role in it; sends no
  /// message. Returns kStandby without committing once the run failed or
  /// a member finished. Throws std::runtime_error if the rendezvous exceeds
  /// its hard deadline (after marking the run failed so peers unwind).
  ReconfigOutcome reconfigure(int phys, std::int64_t completed);

  /// An active rank calls this once it has applied the last step, just
  /// before its thread exits. From then on nothing commits: stragglers at
  /// the rendezvous and parked standbys wake and exit. Returns true for the
  /// first caller only.
  bool finish();

  /// True when the run can no longer make progress (no survivors, an empty
  /// or stateless view, or rendezvous deadline blown).
  bool run_failed() const;
  std::string fail_reason() const;

  /// Committed reconfigurations so far (copy; stable only after the run).
  std::vector<ReconfigRecord> records() const;
  int reconfigurations() const;

 private:
  enum class Status { kActive, kStandby, kDead };

  void open_epoch_locked(std::int64_t trigger_iter);
  /// Applies the due events, resets the transport and commits the next
  /// view (or fails the run). Every participant has arrived.
  void commit_locked();
  void fail_run_locked(const std::string& reason);
  bool rendezvous_complete_locked() const;
  void compute_resume_locked(const MembershipView& next);
  void publish_metrics_locked() const;
  ReconfigOutcome standby_outcome() const { return ReconfigOutcome{}; }
  void watchdog_loop();

  SimCluster& cluster_;

  mutable std::mutex mu_;
  std::condition_variable cv_;

  MembershipView view_;  // the committed view
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

  // One epoch = one reconfiguration.
  bool epoch_open_ = false;
  std::int64_t epoch_seq_ = 0;  // epochs opened, ever
  std::chrono::steady_clock::time_point epoch_t0_;
  std::set<int> participants_;           // phys expected at the rendezvous
  std::map<int, std::int64_t> arrived_;  // phys -> completed steps
  bool epoch_fault_ = false;

  // The last commit's resume point and state root (with view_), read by
  // every rank that classifies it.
  std::int64_t resume_iter_ = 0;
  int state_root_phys_ = 0;

  std::vector<ReconfigRecord> records_;  // one per commit

  // Liveness watchdog (the membership comm worker): aborts the cluster when
  // an epoch stalls so ranks stuck in old-generation transport unwind.
  bool shutdown_ = false;
  std::thread watchdog_;
};

}  // namespace minsgd::comm

#include "comm/membership.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "comm/cluster.hpp"
#include "comm/communicator.hpp"
#include "comm/fault.hpp"
#include "core/check.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace minsgd::comm {

MembershipView MembershipView::initial(int world) {
  MINSGD_CHECK(world >= 1, "MembershipView::initial: world ", world, " < 1");
  MembershipView v;
  v.generation = 0;
  v.ranks.resize(static_cast<std::size_t>(world));
  for (int r = 0; r < world; ++r) v.ranks[static_cast<std::size_t>(r)] = r;
  return v;
}

ElasticCoordinator::ElasticCoordinator(SimCluster& cluster,
                                       MembershipView initial,
                                       std::vector<ElasticEvent> events)
    : cluster_(cluster), view_(std::move(initial)) {
  // The coordinator is wired up by the elastic trainer before any rank
  // thread exists; a bad initial view is a programming error, not
  // recoverable input.
  MINSGD_CHECK(!view_.ranks.empty(), "ElasticCoordinator: empty initial view");
  MINSGD_CHECK(view_.generation >= 0, "ElasticCoordinator: generation ",
               view_.generation, " < 0");
  int prev = -1;
  for (int r : view_.ranks) {
    MINSGD_CHECK(r > prev, "ElasticCoordinator: view ranks not ascending");
    MINSGD_CHECK(r >= 0 && r < cluster.world(), "ElasticCoordinator: rank ",
                 r, " outside cluster world ", cluster.world());
    prev = r;
  }
  status_.assign(static_cast<std::size_t>(cluster.world()), Status::kStandby);
  for (int r : view_.ranks) {
    status_[static_cast<std::size_t>(r)] = Status::kActive;
  }
  events_.reserve(events.size());
  for (const ElasticEvent& ev : events) events_.push_back(PendingEvent{ev});
  committed_view_ = view_;
  // Active ranks split the intra-op budget; standbys idle at 1 thread.
  cluster_.reshape_compute(view_.ranks);
  publish_metrics_locked();
  // The membership comm worker: a liveness watchdog that aborts the cluster
  // when a reconfiguration stalls, so ranks stuck in old-generation
  // transport unwind and reach the rendezvous.
  watchdog_ = std::thread([this] { watchdog_loop(); });
}

ElasticCoordinator::~ElasticCoordinator() {
  {
    std::lock_guard lk(mu_);
    shutdown_ = true;
  }
  cv_.notify_all();
  if (watchdog_.joinable()) watchdog_.join();
}

MembershipView ElasticCoordinator::view() const {
  std::lock_guard lk(mu_);
  return view_;
}

bool ElasticCoordinator::reconfig_due(std::int64_t next_iter) const {
  std::lock_guard lk(mu_);
  if (failure_pending_) return true;
  // An open epoch already consumed its triggering event (the first rank to
  // poll opened it), so the event table alone would send every later-polling
  // member into the next iteration's collectives — where the ranks already
  // parked at the rendezvous never show up. The epoch itself is the signal.
  if (epoch_open_) return true;
  for (const PendingEvent& pe : events_) {
    if (pe.consumed || pe.ev.at_iter > next_iter) continue;
    const auto st = status_[static_cast<std::size_t>(pe.ev.rank)];
    if (pe.ev.kind == ElasticEventKind::kJoin && st == Status::kStandby) {
      return true;
    }
    if (pe.ev.kind == ElasticEventKind::kLeave && st == Status::kActive) {
      return true;
    }
  }
  return false;
}

void ElasticCoordinator::report_failure(int phys) {
  {
    std::lock_guard lk(mu_);
    failure_pending_ = true;
    if (epoch_open_) epoch_fault_ = true;
  }
  // Wake peers blocked in old-generation transport so they can unwind into
  // the rendezvous. The next proposal's transport reset clears the abort.
  cluster_.abort("elastic: fault reported by rank " + std::to_string(phys));
  cv_.notify_all();
}

void ElasticCoordinator::report_death(int phys) {
  {
    std::lock_guard lk(mu_);
    status_[static_cast<std::size_t>(phys)] = Status::kDead;
    participants_.erase(phys);
    arrived_.erase(phys);
    failure_pending_ = true;
    if (epoch_open_) epoch_fault_ = true;
    const bool any_active =
        std::any_of(status_.begin(), status_.end(),
                    [](Status s) { return s == Status::kActive; });
    if (!any_active) {
      fail_run_locked("elastic: no surviving member holds training state");
    }
  }
  cluster_.abort("elastic: rank " + std::to_string(phys) + " failed");
  cv_.notify_all();
}

bool ElasticCoordinator::await_admission(int phys) {
  std::unique_lock lk(mu_);
  // A crashed rank re-entering here models its replacement process: the
  // slot is standby again and a later join event can re-admit it.
  status_[static_cast<std::size_t>(phys)] = Status::kStandby;
  cv_.wait(lk, [&] {
    return run_done_ || run_failed_ ||
           (epoch_open_ && participants_.count(phys) > 0);
  });
  return !(run_done_ || run_failed_);
}

void ElasticCoordinator::finish(int phys) {
  {
    std::lock_guard lk(mu_);
    run_done_ = true;
    // The finisher's thread is about to exit; withdraw it from membership
    // so a straggler's post-finish reconfiguration (say, a message lost in
    // the very last barrier) does not wait at the rendezvous for a rank
    // that will never arrive.
    status_[static_cast<std::size_t>(phys)] = Status::kStandby;
    participants_.erase(phys);
    arrived_.erase(phys);
  }
  cv_.notify_all();
}

bool ElasticCoordinator::run_failed() const {
  std::lock_guard lk(mu_);
  return run_failed_;
}

std::string ElasticCoordinator::fail_reason() const {
  std::lock_guard lk(mu_);
  return fail_reason_;
}

std::vector<ReconfigRecord> ElasticCoordinator::records() const {
  std::lock_guard lk(mu_);
  return records_;
}

int ElasticCoordinator::reconfigurations() const {
  std::lock_guard lk(mu_);
  return static_cast<int>(records_.size());
}

void ElasticCoordinator::fail_run_locked(const std::string& reason) {
  if (run_failed_) return;
  run_failed_ = true;
  fail_reason_ = reason;
  cluster_.abort(reason);
  cv_.notify_all();
}

bool ElasticCoordinator::rendezvous_complete_locked() const {
  if (participants_.empty()) return false;
  return std::all_of(participants_.begin(), participants_.end(),
                     [&](int p) { return arrived_.count(p) > 0; });
}

bool ElasticCoordinator::close_complete_locked() const {
  if (proposed_attempt_ != attempt_) return false;
  // Only members still alive owe a report; a member that died mid-round is
  // caught by the proposal-liveness check at resolution.
  return std::all_of(proposal_.ranks.begin(), proposal_.ranks.end(),
                     [&](int r) {
                       return participants_.count(r) == 0 ||
                              close_reported_.count(r) > 0;
                     });
}

int ElasticCoordinator::leader_phys_locked() const {
  // Lowest surviving *old-view* member: joiners have no state and no
  // authority to reset the transport.
  for (int p : participants_) {
    if (view_.contains(p)) return p;
  }
  return -1;
}

MembershipView ElasticCoordinator::make_proposal_locked() const {
  MembershipView v;
  v.generation = view_.generation + 1;
  for (int p : participants_) {
    if (epoch_leavers_.count(p) == 0) v.ranks.push_back(p);
  }
  return v;  // std::set iteration keeps ranks ascending
}

void ElasticCoordinator::compute_resume_locked() {
  // Authoritative state: the furthest-trained surviving member of the old
  // view that stays in the proposal (ties break to the lowest rank). A
  // post-step crash can leave survivors one optimizer step apart, so resume
  // is max — laggards are healed by the state broadcast.
  resume_iter_ = -1;
  state_root_phys_ = -1;
  for (int r : proposal_.ranks) {
    if (!view_.contains(r)) continue;
    const auto it = arrived_.find(r);
    if (it == arrived_.end() || it->second < 0) continue;
    if (it->second > resume_iter_) {
      resume_iter_ = it->second;
      state_root_phys_ = r;
    }
  }
  if (state_root_phys_ < 0) {
    fail_run_locked("elastic: no state-bearing member in proposed view");
  }
}

void ElasticCoordinator::open_epoch_locked(std::int64_t trigger_iter) {
  epoch_open_ = true;
  ++epoch_seq_;
  attempt_ = 0;
  proposed_attempt_ = -1;
  epoch_t0_ = std::chrono::steady_clock::now();
  arrived_.clear();
  epoch_leavers_.clear();
  close_reported_.clear();
  wire_ok_ = true;
  epoch_fault_ = failure_pending_;
  participants_.clear();
  for (std::size_t p = 0; p < status_.size(); ++p) {
    if (status_[p] == Status::kActive) {
      participants_.insert(static_cast<int>(p));
    }
  }
  for (PendingEvent& pe : events_) {
    if (pe.consumed || pe.ev.at_iter > trigger_iter) continue;
    pe.consumed = true;
    const auto st = status_[static_cast<std::size_t>(pe.ev.rank)];
    // Once a member finished the run, parked standbys are already exiting;
    // a late join event is stale and must not pull in a departed thread.
    if (pe.ev.kind == ElasticEventKind::kJoin && st == Status::kStandby &&
        !run_done_) {
      participants_.insert(pe.ev.rank);
    } else if (pe.ev.kind == ElasticEventKind::kLeave &&
               st == Status::kActive) {
      epoch_leavers_.insert(pe.ev.rank);
    }
  }
  cv_.notify_all();  // pull due joiners out of await_admission
}

void ElasticCoordinator::publish_metrics_locked() const {
  auto& reg = obs::metrics();
  reg.gauge("cluster.membership.generation")
      .set(static_cast<double>(view_.generation));
  reg.gauge("cluster.membership.live_ranks")
      .set(static_cast<double>(view_.world()));
}

void ElasticCoordinator::resolve_attempt_locked() {
  ++decision_seq_;
  const bool proposal_live =
      std::all_of(proposal_.ranks.begin(), proposal_.ranks.end(),
                  [&](int r) { return participants_.count(r) > 0; });
  if (wire_ok_ && proposal_live) {
    view_ = proposal_;
    committed_view_ = proposal_;
    committed_resume_ = resume_iter_;
    committed_root_phys_ = state_root_phys_;
    commit_seq_ = decision_seq_;
    for (std::size_t p = 0; p < status_.size(); ++p) {
      const int phys = static_cast<int>(p);
      if (view_.contains(phys)) {
        status_[p] = Status::kActive;
      } else if (status_[p] == Status::kActive) {
        status_[p] = Status::kStandby;
      }
    }
    failure_pending_ = false;
    epoch_open_ = false;
    const auto pause = std::chrono::steady_clock::now() - epoch_t0_;
    ReconfigRecord rec;
    rec.generation = view_.generation;
    rec.at_iter = resume_iter_;
    rec.world = view_.world();
    rec.pause_ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(pause).count();
    rec.attempts = attempt_ + 1;
    rec.fault_triggered = epoch_fault_;
    records_.push_back(rec);
    // One commit, one membership flight event: the thread that resolves the
    // attempt is the only one inside this branch, so the postmortem's
    // reconfig timeline has exactly one point per committed generation (and
    // the analyzer reads the new expected world from arg).
    MINSGD_FLIGHT(obs::FlightKind::kMembership, obs::FlightOp::kCommit,
                  Communicator::kMembershipChannel, 0, view_.generation, 0,
                  view_.world());
    publish_metrics_locked();
    auto& reg = obs::metrics();
    reg.counter("cluster.membership.reconfigs").add(1);
    reg.counter("cluster.membership.reconfig_ms")
        .add(rec.pause_ns / 1'000'000);
  } else {
    ++attempt_;
    if (attempt_ >= kMaxRounds) {
      fail_run_locked("elastic: reconfiguration attempt budget exhausted");
    }
  }
  cv_.notify_all();
}

template <typename Pred>
void ElasticCoordinator::wait_or_throw(
    std::unique_lock<std::mutex>& lk,
    std::chrono::steady_clock::time_point deadline, const char* what,
    Pred pred) {
  if (!cv_.wait_until(lk, deadline, pred)) {
    fail_run_locked(std::string("elastic: ") + what +
                    " deadline expired (a rank never reached the "
                    "rendezvous)");
    throw std::runtime_error(fail_reason_);
  }
}

bool ElasticCoordinator::wire_round(int phys, const MembershipView& proposal,
                                    std::int64_t round_id) {
  // In-band propose/ack/commit over the *proposed* generation's tag space
  // (membership channel), proving the new communicator live end-to-end
  // before the view commits. Any fault or payload mismatch costs this
  // attempt; the close barrier keeps all members' verdicts atomic.
  try {
    Communicator wc(cluster_, phys, proposal,
                    Communicator::kMembershipChannel);
    std::vector<float> expect;
    expect.reserve(proposal.ranks.size() + 4);
    expect.push_back(static_cast<float>(proposal.generation));
    expect.push_back(static_cast<float>(proposal.world()));
    expect.push_back(static_cast<float>(round_id / 65536));
    expect.push_back(static_cast<float>(round_id % 65536));
    for (int r : proposal.ranks) expect.push_back(static_cast<float>(r));
    std::vector<float> buf = expect;
    if (wc.rank() != 0) std::fill(buf.begin(), buf.end(), -1.0f);
    wc.broadcast(buf, /*root=*/0);  // PROPOSE
    if (buf != expect) return false;
    std::vector<float> token{1.0f};
    wc.reduce_sum(token, /*root=*/0);  // ACK
    if (wc.rank() == 0 &&
        token[0] != static_cast<float>(proposal.world())) {
      return false;
    }
    std::vector<float> commit{wc.rank() == 0 ? 1.0f : 0.0f};
    wc.broadcast(commit, /*root=*/0);  // COMMIT
    return commit[0] == 1.0f;
  } catch (const RankFailure&) {
    // This rank itself crashed mid-round: that is a death, not a failed
    // attempt — propagate so the caller reports it (peers stop waiting for
    // our close report once report_death drops us from the participants).
    throw;
  } catch (const FaultError&) {
    return false;
  }
}

ReconfigOutcome ElasticCoordinator::reconfigure(int phys,
                                                std::int64_t completed) {
  obs::ScopedSpan span;
  if (obs::tracer().enabled()) {
    span.start("cluster.reconfig", obs::cat::kCluster);
  }
  MINSGD_FLIGHT(obs::FlightKind::kArrive, obs::FlightOp::kRendezvous,
                Communicator::kMembershipChannel, 0, view().generation, 0,
                completed);
  std::unique_lock lk(mu_);
  if (run_failed_) return standby_outcome();
  if (!epoch_open_) open_epoch_locked(std::max<std::int64_t>(completed, 0));
  arrived_[phys] = completed;
  cv_.notify_all();

  for (;;) {
    if (run_failed_) return standby_outcome();
    const auto deadline = epoch_t0_ + 2 * kRendezvousTimeout;
    const std::int64_t my_seq = decision_seq_;
    wait_or_throw(lk, deadline, "rendezvous", [&] {
      return run_failed_ || decision_seq_ > my_seq ||
             rendezvous_complete_locked();
    });
    if (run_failed_) return standby_outcome();

    if (decision_seq_ == my_seq) {
      const int leader = leader_phys_locked();
      if (leader < 0) {
        fail_run_locked("elastic: no surviving member holds training state");
        return standby_outcome();
      }
      if (phys == leader && proposed_attempt_ != attempt_) {
        // Every live rank is parked in the coordinator, so the transport is
        // quiescent: drain stale generations, re-arm the barrier, clear the
        // abort flag, and re-split the compute budget over the proposal.
        cluster_.reset_transport();
        proposal_ = make_proposal_locked();
        if (proposal_.ranks.empty()) {
          fail_run_locked("elastic: proposed view is empty");
          return standby_outcome();
        }
        cluster_.reshape_compute(proposal_.ranks);
        compute_resume_locked();
        if (run_failed_) return standby_outcome();
        round_id_ = epoch_seq_ * 64 + attempt_;
        proposed_attempt_ = attempt_;
        close_reported_.clear();
        wire_ok_ = true;
        cv_.notify_all();
      } else if (proposed_attempt_ != attempt_) {
        wait_or_throw(lk, deadline, "proposal", [&] {
          return run_failed_ || decision_seq_ > my_seq ||
                 proposed_attempt_ == attempt_;
        });
        if (run_failed_) return standby_outcome();
      }

      if (decision_seq_ == my_seq) {
        const MembershipView proposal = proposal_;
        const std::int64_t round = round_id_;
        bool ok = true;
        if (proposal.contains(phys)) {
          lk.unlock();
          ok = wire_round(phys, proposal, round);
          lk.lock();
        }
        if (decision_seq_ == my_seq) {
          if (!ok) wire_ok_ = false;
          close_reported_.insert(phys);
          cv_.notify_all();
          wait_or_throw(lk, deadline, "close", [&] {
            return run_failed_ || decision_seq_ > my_seq ||
                   close_complete_locked();
          });
          if (run_failed_) return standby_outcome();
          if (decision_seq_ == my_seq && close_complete_locked()) {
            resolve_attempt_locked();
          }
        }
      }
    }

    // A decision newer than my snapshot exists now; classify it.
    if (commit_seq_ > my_seq) {
      ReconfigOutcome out;
      out.view = committed_view_;
      out.resume_iter = committed_resume_;
      const int root_v = committed_view_.index_of(committed_root_phys_);
      out.state_root = root_v < 0 ? 0 : root_v;
      out.is_root = phys == committed_root_phys_;
      out.role = committed_view_.contains(phys) ? MemberRole::kMember
                                                : MemberRole::kStandby;
      if (obs::tracer().enabled()) {
        span.set_label("gen=" + std::to_string(committed_view_.generation));
      }
      return out;
    }
    // The attempt was retried; loop back into the rendezvous.
  }
}

void ElasticCoordinator::watchdog_loop() {
  std::unique_lock lk(mu_);
  while (!shutdown_) {
    if (!epoch_open_) {
      cv_.wait(lk, [&] { return shutdown_ || epoch_open_; });
      continue;
    }
    const auto deadline = epoch_t0_ + kRendezvousTimeout;
    const std::int64_t seq = epoch_seq_;
    const bool changed = cv_.wait_until(lk, deadline, [&] {
      return shutdown_ || !epoch_open_ || epoch_seq_ != seq;
    });
    if (changed) continue;
    // The epoch stalled: wake ranks stuck in old-generation transport (a
    // recv with no deadline, a parked barrier) so they can unwind into the
    // rendezvous. The next proposal's transport reset clears this abort.
    lk.unlock();
    cluster_.abort("elastic: reconfiguration stalled past deadline");
    lk.lock();
    cv_.wait(lk, [&] { return shutdown_ || !epoch_open_ || epoch_seq_ != seq; });
  }
}

}  // namespace minsgd::comm

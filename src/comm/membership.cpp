#include "comm/membership.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "comm/cluster.hpp"
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
  // The first rank to poll opened the epoch, possibly on an event that is not
  // yet due at a later poller's count; without this, that poller would enter
  // the next iteration's collectives, where the ranks already parked at the
  // rendezvous never show up. The epoch itself is the signal.
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
  // the rendezvous. The next commit's transport reset clears the abort.
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

bool ElasticCoordinator::finish() {
  bool first = false;
  {
    std::lock_guard lk(mu_);
    first = !run_done_;
    run_done_ = true;
  }
  // Wakes parked standbys, and stragglers waiting at a rendezvous, so they
  // exit instead of waiting for a rank that will never arrive.
  cv_.notify_all();
  return first;
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

void ElasticCoordinator::compute_resume_locked(const MembershipView& next) {
  // Authoritative state: the furthest-trained surviving member of the old
  // view that stays in the next one (ties break to the lowest rank). A
  // post-step crash can leave survivors one optimizer step apart, so resume
  // is max — laggards are healed by the state broadcast.
  resume_iter_ = -1;
  state_root_phys_ = -1;
  for (int r : next.ranks) {
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
  epoch_t0_ = std::chrono::steady_clock::now();
  arrived_.clear();
  epoch_fault_ = failure_pending_;
  participants_.clear();
  for (std::size_t p = 0; p < status_.size(); ++p) {
    if (status_[p] == Status::kActive) {
      participants_.insert(static_cast<int>(p));
    }
  }
  // Pull in the standbys whose join is due by the opener's count. Whether
  // the join applies in this epoch is decided at commit.
  for (const PendingEvent& pe : events_) {
    if (!pe.consumed && pe.ev.kind == ElasticEventKind::kJoin &&
        pe.ev.at_iter <= trigger_iter &&
        status_[static_cast<std::size_t>(pe.ev.rank)] == Status::kStandby) {
      participants_.insert(pe.ev.rank);
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

void ElasticCoordinator::commit_locked() {
  // Events apply up to the slowest state-bearing member of the old view, so
  // none commits with a resume point before its at_iter: a leaver one step
  // ahead of a survivor that lost its last message waits for the next epoch.
  std::int64_t low = -1;
  for (const auto& [p, done] : arrived_) {
    if (done >= 0 && view_.contains(p) && (low < 0 || done < low)) low = done;
  }
  std::set<int> members;
  for (int p : participants_) {
    if (status_[static_cast<std::size_t>(p)] == Status::kActive) {
      members.insert(p);
    }
  }
  for (PendingEvent& pe : events_) {
    if (pe.consumed || pe.ev.at_iter > low) continue;
    const int r = pe.ev.rank;
    const auto st = status_[static_cast<std::size_t>(r)];
    if (pe.ev.kind == ElasticEventKind::kJoin && st == Status::kStandby) {
      if (participants_.count(r) == 0) continue;  // not pulled in yet
      members.insert(r);
    } else if (pe.ev.kind == ElasticEventKind::kLeave) {
      members.erase(r);
    }
    pe.consumed = true;  // applied, or stale and ignored
  }
  MembershipView next;
  next.generation = view_.generation + 1;
  next.ranks.assign(members.begin(), members.end());  // ascending
  if (next.ranks.empty()) {
    fail_run_locked("elastic: proposed view is empty");
    return;
  }
  compute_resume_locked(next);
  if (run_failed_) return;

  // Every live rank is parked here, so the transport is quiescent: drain
  // stale generations, re-arm the barrier, clear the abort flag, and
  // re-split the compute budget over the new members.
  cluster_.reset_transport();
  cluster_.reshape_compute(next.ranks);
  view_ = std::move(next);
  for (std::size_t p = 0; p < status_.size(); ++p) {
    if (view_.contains(static_cast<int>(p))) {
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
  rec.fault_triggered = epoch_fault_;
  records_.push_back(rec);
  // One commit, one membership flight event (membership events carry no
  // channel), so the postmortem's reconfig timeline has exactly one point
  // per committed generation and reads the new expected world from arg.
  MINSGD_FLIGHT(obs::FlightKind::kMembership, obs::FlightOp::kCommit, 0, 0,
                view_.generation, 0, view_.world());
  publish_metrics_locked();
  auto& reg = obs::metrics();
  reg.counter("cluster.membership.reconfigs").add(1);
  reg.counter("cluster.membership.reconfig_ms")
      .add(rec.pause_ns / 1'000'000);
  cv_.notify_all();
}

ReconfigOutcome ElasticCoordinator::reconfigure(int phys,
                                                std::int64_t completed) {
  obs::ScopedSpan span;
  if (obs::tracer().enabled()) {
    span.start("cluster.reconfig", obs::cat::kCluster);
  }
  MINSGD_FLIGHT(obs::FlightKind::kArrive, obs::FlightOp::kRendezvous, 0, 0,
                view().generation, 0, completed);
  std::unique_lock lk(mu_);
  // Once a member finished, the run's result is fixed: nothing commits.
  if (run_failed_ || run_done_) return standby_outcome();
  if (!epoch_open_) open_epoch_locked(std::max<std::int64_t>(completed, 0));
  arrived_[phys] = completed;
  const std::size_t commits = records_.size();
  // The thread that sees the rendezvous complete commits: the last to
  // arrive, or a waiter woken when a crash or a finish shrank it.
  if (!cv_.wait_until(lk, epoch_t0_ + 2 * kRendezvousTimeout, [&] {
        return run_failed_ || run_done_ || records_.size() > commits ||
               rendezvous_complete_locked();
      })) {
    fail_run_locked(
        "elastic: rendezvous deadline expired (a rank never reached the "
        "rendezvous)");
    throw std::runtime_error(fail_reason_);
  }
  if (records_.size() == commits && !run_failed_ && !run_done_) {
    commit_locked();
  }
  if (run_failed_ || records_.size() == commits) return standby_outcome();

  ReconfigOutcome out;
  out.view = view_;
  out.resume_iter = resume_iter_;
  const int root_v = view_.index_of(state_root_phys_);
  out.state_root = root_v < 0 ? 0 : root_v;
  out.is_root = phys == state_root_phys_;
  out.role = view_.contains(phys) ? MemberRole::kMember : MemberRole::kStandby;
  if (obs::tracer().enabled()) {
    span.set_label("gen=" + std::to_string(view_.generation));
  }
  return out;
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
    // rendezvous. The next commit's transport reset clears this abort.
    lk.unlock();
    cluster_.abort("elastic: reconfiguration stalled past deadline");
    lk.lock();
    cv_.wait(lk, [&] { return shutdown_ || !epoch_open_ || epoch_seq_ != seq; });
  }
}

}  // namespace minsgd::comm

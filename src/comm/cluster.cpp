#include "comm/cluster.hpp"

#include <algorithm>
#include <exception>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "obs/flight.hpp"
#include "obs/postmortem.hpp"
#include "obs/trace.hpp"

namespace minsgd::comm {

namespace {

int checked_world(int world) {
  if (world <= 0) throw std::invalid_argument("SimCluster: world <= 0");
  return world;
}

struct RankError {
  int rank = -1;
  std::exception_ptr error;
  std::string what;
  bool is_abort_victim = false;  // ClusterAborted: a casualty, not a cause
};

std::string describe(const std::exception_ptr& e, bool* is_abort_victim) {
  try {
    std::rethrow_exception(e);
  } catch (const ClusterAborted& ex) {
    *is_abort_victim = true;
    return ex.what();
  } catch (const std::exception& ex) {
    return ex.what();
  } catch (...) {
    return "unknown exception";
  }
}

/// Rethrows with every rank's error in the message but the dynamic type of
/// the first root cause (so callers' catch clauses keep working: a rank
/// that threw invalid_argument still surfaces as invalid_argument).
[[noreturn]] void rethrow_aggregated(const std::vector<RankError>& errors) {
  const RankError* first_cause = nullptr;
  std::ostringstream os;
  int causes = 0;
  for (const auto& e : errors) {
    if (!e.is_abort_victim) {
      if (!first_cause) first_cause = &e;
      ++causes;
    }
  }
  // Pure-victim case (abort without a recorded cause, e.g. external abort):
  // fall back to the first error.
  if (!first_cause) first_cause = &errors.front();

  if (errors.size() == 1) std::rethrow_exception(errors.front().error);

  os << errors.size() << " rank(s) failed (" << causes << " root cause(s))";
  for (const auto& e : errors) {
    os << "; [rank " << e.rank << (e.is_abort_victim ? ", aborted" : "")
       << "] " << e.what;
  }
  const std::string msg = os.str();
  try {
    std::rethrow_exception(first_cause->error);
  } catch (const RankFailure& ex) {
    throw RankFailure(ex.rank(), msg);
  } catch (const CommTimeout& ex) {
    throw CommTimeout(ex.rank(), ex.peer(), ex.tag(), ex.pending(), msg);
  } catch (const ClusterAborted&) {
    throw ClusterAborted(msg);
  } catch (const std::invalid_argument&) {
    throw std::invalid_argument(msg);
  } catch (const std::domain_error&) {
    throw std::domain_error(msg);
  } catch (const std::length_error&) {
    throw std::length_error(msg);
  } catch (const std::out_of_range&) {
    throw std::out_of_range(msg);
  } catch (const std::logic_error&) {
    throw std::logic_error(msg);
  } catch (const std::runtime_error&) {
    throw std::runtime_error(msg);
  } catch (...) {
    throw std::runtime_error(msg);
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// AbortableBarrier

AbortableBarrier::AbortableBarrier(int parties) : parties_(parties) {
  if (parties <= 0) {
    throw std::invalid_argument("AbortableBarrier: parties <= 0");
  }
}

void AbortableBarrier::arrive_and_wait() {
  std::unique_lock lk(mu_);
  if (aborted_) throw ClusterAborted("barrier: cluster aborted");
  if (++waiting_ == parties_) {
    waiting_ = 0;
    ++generation_;
    cv_.notify_all();
    return;
  }
  const std::uint64_t gen = generation_;
  cv_.wait(lk, [&] { return generation_ != gen || aborted_; });
  if (generation_ == gen && aborted_) {
    throw ClusterAborted("barrier: cluster aborted");
  }
}

void AbortableBarrier::abort() {
  {
    std::lock_guard lk(mu_);
    aborted_ = true;
  }
  cv_.notify_all();
}

void AbortableBarrier::reset() {
  std::lock_guard lk(mu_);
  aborted_ = false;
  waiting_ = 0;
}

// ---------------------------------------------------------------------------
// SimCluster

SimCluster::SimCluster(const ClusterOptions& options)
    : world_(checked_world(options.world)),
      compute_budget_(options.compute_threads != 0
                          ? options.compute_threads
                          : ComputeContext::default_threads()),
      meter_(static_cast<std::size_t>(world_)),
      barrier_(world_) {
  // Any cluster in the process makes MINSGD_CHECK failures dump the flight
  // recorder: an invariant violation mid-collective is exactly the case
  // where the cross-rank timeline matters and the abort would discard it.
  obs::arm_postmortem_on_check_failure();
  // Split the global intra-op budget across ranks so total live worker
  // threads stay <= budget no matter how large the simulated world is.
  const std::size_t per_rank = std::max<std::size_t>(
      1, compute_budget_ / static_cast<std::size_t>(world_));
  rank_contexts_.reserve(static_cast<std::size_t>(world_));
  mailboxes_.reserve(static_cast<std::size_t>(world_));
  for (int r = 0; r < world_; ++r) {
    rank_contexts_.push_back(std::make_unique<ComputeContext>(per_rank));
    mailboxes_.push_back(std::make_unique<Mailbox>());
  }
}

void SimCluster::reset_transport() {
  for (auto& mb : mailboxes_) mb->clear();
  barrier_.reset();
  aborted_.store(false, std::memory_order_release);
  std::lock_guard lk(abort_mu_);
  abort_reason_.clear();
}

void SimCluster::reshape_compute(const std::vector<int>& active) {
  const std::size_t members = std::max<std::size_t>(1, active.size());
  const std::size_t per_rank =
      std::max<std::size_t>(1, compute_budget_ / members);
  std::vector<bool> is_active(static_cast<std::size_t>(world_), false);
  for (int r : active) is_active[static_cast<std::size_t>(r)] = true;
  for (int r = 0; r < world_; ++r) {
    const std::size_t want =
        is_active[static_cast<std::size_t>(r)] ? per_rank : 1;
    auto& ctx = rank_contexts_[static_cast<std::size_t>(r)];
    if (ctx->threads() != want) {
      ctx = std::make_unique<ComputeContext>(want);
    }
  }
}

const ComputeContext& SimCluster::rank_context(int rank) const {
  if (rank < 0 || rank >= world_) {
    throw std::invalid_argument("SimCluster::rank_context: rank out of range");
  }
  return *rank_contexts_[static_cast<std::size_t>(rank)];
}

void SimCluster::set_fault_injector(std::shared_ptr<FaultInjector> injector) {
  injector_ = std::move(injector);
  if (injector_ && !timeout_configured_) recv_timeout_ = kFaultRecvTimeout;
}

FaultStats SimCluster::rank_faults(int rank) const {
  if (rank < 0 || rank >= world_) {
    throw std::invalid_argument("SimCluster::rank_faults: rank out of range");
  }
  return injector_ ? injector_->rank_stats(rank) : FaultStats{};
}

FaultStats SimCluster::total_faults() const {
  return injector_ ? injector_->total() : FaultStats{};
}

void SimCluster::set_recv_timeout(std::chrono::milliseconds timeout) {
  if (timeout.count() <= 0 && timeout != kNoTimeout) {
    throw std::invalid_argument("SimCluster::set_recv_timeout: timeout <= 0");
  }
  recv_timeout_ = timeout;
  timeout_configured_ = true;
}

void SimCluster::abort(const std::string& reason) {
  bool expected = false;
  if (aborted_.compare_exchange_strong(expected, true,
                                       std::memory_order_acq_rel)) {
    {
      std::lock_guard lk(abort_mu_);
      abort_reason_ = reason;
    }
    for (auto& mb : mailboxes_) mb->abort();
    barrier_.abort();
  }
}

std::string SimCluster::abort_reason() const {
  std::lock_guard lk(abort_mu_);
  return abort_reason_;
}

void SimCluster::run(const std::function<void(Communicator&)>& fn) {
  // A fresh run must not see leftovers of an aborted predecessor: stale
  // undelivered messages would match the new run's collective tags.
  reset_transport();

  std::vector<std::thread> threads;
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(world_));
  threads.reserve(static_cast<std::size_t>(world_));
  for (int r = 0; r < world_; ++r) {
    threads.emplace_back([this, r, &fn, &errors] {
      // Every span this rank thread records lands in its own trace lane.
      obs::set_thread_rank(r);
      try {
        obs::ScopedSpan sp("rank", obs::cat::kCluster);
        Communicator comm(*this, r);
        fn(comm);
      } catch (const std::exception& e) {
        // The rank's last flight event marks the unwind, so the postmortem
        // shows who died first and from what, in timeline order.
        obs::FlightOp op = obs::FlightOp::kNone;
        if (dynamic_cast<const RankFailure*>(&e) != nullptr) {
          op = obs::FlightOp::kCrashed;
        } else if (dynamic_cast<const CommTimeout*>(&e) != nullptr) {
          op = obs::FlightOp::kTimeout;
        }
        MINSGD_FLIGHT(obs::FlightKind::kCrash, op, 0, 0, 0, 0, r);
        errors[static_cast<std::size_t>(r)] = std::current_exception();
        abort("aborted by rank " + std::to_string(r) + ": " + e.what());
      } catch (...) {
        MINSGD_FLIGHT(obs::FlightKind::kCrash, obs::FlightOp::kNone, 0, 0, 0,
                      0, r);
        errors[static_cast<std::size_t>(r)] = std::current_exception();
        abort("aborted by rank " + std::to_string(r) + ": unknown exception");
      }
    });
  }
  for (auto& t : threads) t.join();

  std::vector<RankError> failed;
  for (int r = 0; r < world_; ++r) {
    auto& e = errors[static_cast<std::size_t>(r)];
    if (!e) continue;
    RankError re;
    re.rank = r;
    re.error = e;
    re.what = describe(e, &re.is_abort_victim);
    failed.push_back(std::move(re));
  }
  if (!failed.empty()) {
    // The black-box dump: every CommTimeout / RankFailure / ClusterAborted
    // unwind converges here with all rank threads joined, so one merged
    // postmortem.json captures the whole cluster's last events.
    obs::PostmortemInfo info;
    info.world = world_;
    info.reason = abort_reason();
    if (info.reason.empty()) info.reason = failed.front().what;
    for (const auto& re : failed) {
      info.rank_errors.emplace_back(re.rank, re.what);
    }
    obs::dump_postmortem(info);
    rethrow_aggregated(failed);
  }
}

}  // namespace minsgd::comm

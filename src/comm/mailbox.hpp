// Mailbox: the per-rank message queue behind the simulated transport.
//
// Messages are float payloads tagged with (source, tag). take_for() blocks
// until a matching message arrives, the deadline expires, or the mailbox is
// aborted; matching is FIFO within a (source, tag) pair, which is exactly
// MPI's non-overtaking guarantee for a single channel. Abort is the
// cooperative-unwind hook: when a rank dies mid-collective, SimCluster
// aborts every mailbox so peers blocked here wake with kAborted instead of
// hanging forever.
//
// A message is either eager (it owns a copy of the data in `payload`) or a
// rendezvous message (MPI's rendezvous protocol): a read-only `view` of the
// sender's own buffer plus a `Rendezvous` handshake the sender keeps on its
// stack. The receiver reads the view and then calls complete(); the sender
// neither writes nor frees the viewed memory until it has seen the
// completion, or has withdrawn the unread message from the peer's mailbox.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <span>
#include <stdexcept>
#include <vector>

namespace minsgd::comm {

class Mailbox;

/// Sender-owned completion handshake of one rendezvous message. `done` is
/// guarded by `home`'s lock, and `home` (the sender's own mailbox) is the
/// one whose abort() wakes the sender's wait.
struct Rendezvous {
  explicit Rendezvous(Mailbox* sender_mailbox) : home(sender_mailbox) {}
  Rendezvous(const Rendezvous&) = delete;
  Rendezvous& operator=(const Rendezvous&) = delete;

  Mailbox* home;
  bool done = false;
};

struct Message {
  int src = -1;
  std::int64_t tag = 0;
  std::vector<float> payload;
  /// Rendezvous messages only: the sender's buffer and its handshake.
  std::span<const float> view{};
  Rendezvous* rendezvous = nullptr;

  /// The message's data, wherever it lives.
  std::span<const float> data() const {
    return rendezvous != nullptr ? view : std::span<const float>(payload);
  }
};

/// One queued-but-unreceived message, as reported by snapshot(). Payloads
/// are summarized by element count: the diagnostic question is "which
/// (src, tag) is sitting here unmatched", not the data itself.
struct PendingMessage {
  int src = -1;
  std::int64_t tag = 0;
  std::size_t numel = 0;
};

class Mailbox {
 public:
  /// Outcome of a bounded take.
  enum class TakeStatus { kOk, kTimeout, kAborted };

  /// Sentinel for "no deadline".
  static constexpr std::chrono::milliseconds kNoTimeout =
      std::chrono::milliseconds::max();

  void deliver(Message msg) {
    {
      std::lock_guard lk(mu_);
      queue_.push_back(std::move(msg));
    }
    cv_.notify_all();
  }

  /// Waits until a message from `src` with `tag` is available (earlier
  /// matching messages first), the `timeout` expires, or abort() is called.
  /// On kOk the message is removed into `out`; otherwise `out` is untouched.
  TakeStatus take_for(int src, std::int64_t tag,
                      std::chrono::milliseconds timeout, Message& out) {
    std::unique_lock lk(mu_);
    const bool bounded = timeout != kNoTimeout;
    const auto deadline = bounded
                              ? std::chrono::steady_clock::now() + timeout
                              : std::chrono::steady_clock::time_point::max();
    for (;;) {
      if (auto it = find_match(src, tag); it != queue_.end()) {
        out = std::move(*it);
        queue_.erase(it);
        return TakeStatus::kOk;
      }
      if (aborted_) return TakeStatus::kAborted;
      if (bounded) {
        if (cv_.wait_until(lk, deadline) == std::cv_status::timeout) {
          if (auto it = find_match(src, tag); it != queue_.end()) {
            out = std::move(*it);
            queue_.erase(it);
            return TakeStatus::kOk;
          }
          return aborted_ ? TakeStatus::kAborted : TakeStatus::kTimeout;
        }
      } else {
        cv_.wait(lk);
      }
    }
  }

  /// Marks a taken rendezvous message's view as read and wakes its sender.
  /// Call on the sender's mailbox (`rv.home`) once the view is no longer
  /// read; the sender may free the viewed memory as soon as the lock drops,
  /// so `rv` must not be touched after this call.
  void complete(Rendezvous& rv) {
    {
      std::lock_guard lk(mu_);
      rv.done = true;
    }
    cv_.notify_all();
  }

  /// Waits on this (the sender's own) mailbox until `rv` is completed
  /// (kOk), `timeout` expires (kTimeout), or, when `abortable`, abort() is
  /// called (kAborted). A non-abortable wait is only for a view a peer has
  /// already taken: its read is bounded, so the wait is too.
  TakeStatus wait_complete(const Rendezvous& rv,
                           std::chrono::milliseconds timeout,
                           bool abortable) {
    std::unique_lock lk(mu_);
    const bool bounded = timeout != kNoTimeout;
    const auto deadline = bounded
                              ? std::chrono::steady_clock::now() + timeout
                              : std::chrono::steady_clock::time_point::max();
    for (;;) {
      if (rv.done) return TakeStatus::kOk;
      if (abortable && aborted_) return TakeStatus::kAborted;
      if (bounded) {
        if (cv_.wait_until(lk, deadline) == std::cv_status::timeout) {
          return rv.done ? TakeStatus::kOk : TakeStatus::kTimeout;
        }
      } else {
        cv_.wait(lk);
      }
    }
  }

  /// Removes the still-queued rendezvous message carrying `rv` from this
  /// (the receiver's) mailbox. False if a receiver has already taken it:
  /// then its read is in progress or done, and the sender must wait for
  /// complete() before reusing the memory.
  bool withdraw(const Rendezvous& rv) {
    std::lock_guard lk(mu_);
    for (auto it = queue_.begin(); it != queue_.end(); ++it) {
      if (it->rendezvous == &rv) {
        queue_.erase(it);
        return true;
      }
    }
    return false;
  }

  /// Unbounded take; kept for callers that want the pre-timeout contract.
  /// Throws std::runtime_error if the mailbox is aborted while waiting.
  Message take(int src, std::int64_t tag) {
    Message m;
    if (take_for(src, tag, kNoTimeout, m) == TakeStatus::kAborted) {
      throw std::runtime_error("Mailbox::take: aborted");
    }
    return m;
  }

  /// Wakes every waiter with kAborted; subsequent takes fail fast until
  /// clear() resets the mailbox for the next run.
  void abort() {
    {
      std::lock_guard lk(mu_);
      aborted_ = true;
    }
    cv_.notify_all();
  }

  /// Drops all queued messages and clears the abort flag. SimCluster calls
  /// this between runs so stale undelivered messages from an aborted run
  /// cannot poison the next run's tag matching.
  void clear() {
    std::lock_guard lk(mu_);
    queue_.clear();
    aborted_ = false;
  }

  /// Copy of the queue's (src, tag, numel) triples, for timeout diagnosis.
  std::vector<PendingMessage> snapshot() const {
    std::lock_guard lk(mu_);
    std::vector<PendingMessage> out;
    out.reserve(queue_.size());
    for (const auto& m : queue_) {
      out.push_back({m.src, m.tag, m.data().size()});
    }
    return out;
  }

  bool empty() const {
    std::lock_guard lk(mu_);
    return queue_.empty();
  }

 private:
  std::deque<Message>::iterator find_match(int src, std::int64_t tag) {
    for (auto it = queue_.begin(); it != queue_.end(); ++it) {
      if (it->src == src && it->tag == tag) return it;
    }
    return queue_.end();
  }

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Message> queue_;
  bool aborted_ = false;
};

}  // namespace minsgd::comm

// FlightRecorder: the always-on black box behind every distributed run.
//
// The tracer (obs/trace.hpp) answers "where does a step's time go?" but is
// off by default and allocates per span; when a 512-rank run dies at 3 a.m.
// the trace is empty and the only artifact is one rank's abort message. The
// flight recorder is the complement: an always-on, fixed-capacity, lock-free
// ring of compact binary events per rank lane — collective begin/end with
// tag + membership generation + bytes, membership commits, checkpoint ops,
// fault injections, step boundaries. Recording one event is a clock read,
// one relaxed fetch_add, and seven relaxed/release atomic stores into a
// preallocated slot: no locks, no allocation, no strings, cheap enough to
// leave on during benchmarks (EXPERIMENTS.md pins the overhead on
// bench_intraop under 2%).
//
// On any failure — a MINSGD_CHECK violation, a CommTimeout/RankFailure
// unwinding out of SimCluster::run — the postmortem layer (obs/postmortem)
// snapshots every lane and writes one merged postmortem.json holding the
// last N events of every rank, which the cross-rank analyzer joins by
// (tag, generation) into arrival-skew and straggler attribution.
//
// Concurrency: each slot is a seqlock — the writer invalidates `seq`,
// stores the fields, then publishes `seq = index + 1` with release order;
// the snapshot reader accepts a slot only when `seq` reads `index + 1`
// before *and* after the field loads. Every access is atomic, so concurrent
// writers + reader are exact under ThreadSanitizer (tier2-tsan covers it),
// and a torn slot is skipped, never misread.
//
// Instrumentation sites in src/ must go through MINSGD_FLIGHT (bottom of
// this header) so the enabled() gate is never bypassed; the analyzer
// check `flight-record` enforces it.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace minsgd::obs {

/// What happened. kCollBegin/kCollEnd bracket one rank's participation in
/// one collective (the begin timestamp is the rank's *arrival*, which is
/// what skew analysis joins); kArrive marks a rendezvous arrival that has no
/// wire tag (membership epochs).
enum class FlightKind : std::uint8_t {
  kNone = 0,
  kCollBegin,   // entered a collective        tag, gen, bytes, arg=algo-free
  kCollEnd,     // left a collective           tag, gen
  kArrive,      // rendezvous arrival          arg = completed iters
  kStep,        // optimizer step done         arg = global iteration
  kMembership,  // view committed              gen, arg = world
  kCheckpoint,  // checkpoint save/load        bytes, arg = global iteration
  kFault,       // injector/transport fault    tag, arg = peer rank
  kCrash,       // this rank is unwinding      arg = rank
};

/// Which operation, within the kind.
enum class FlightOp : std::uint8_t {
  kNone = 0,
  // collectives (kCollBegin / kCollEnd)
  kBarrier,
  kBroadcast,
  kReduce,
  kAllgather,
  kAllreduceStar,
  kAllreduceRing,
  kAllreduceTree,
  kAllreduceRhd,
  // faults (kFault)
  kDrop,
  kDelay,
  kDuplicate,
  kCorrupt,
  kCrashed,
  kTimeout,
  kStall,  // straggler stall at collective entry
  // checkpoint (kCheckpoint)
  kSave,
  kLoad,
  // membership (kMembership / kArrive)
  kCommit,
  kRendezvous,
};

const char* to_string(FlightKind kind);
const char* to_string(FlightOp op);

/// One decoded event, as read back by snapshot(). `rank` is the recording
/// thread's cluster rank lane (obs::thread_rank(); -1 = driver).
struct FlightEvent {
  std::int64_t t_ns = 0;  // relative to the recorder's epoch
  FlightKind kind = FlightKind::kNone;
  FlightOp op = FlightOp::kNone;
  int rank = -1;
  int channel = 0;
  std::int64_t tag = 0;
  std::int64_t generation = 0;
  std::int64_t bytes = 0;
  std::int64_t arg = 0;
};

/// Fixed-capacity, lock-free per-rank-lane ring of FlightEvents.
///
/// Thread-safe: record() from any number of threads concurrently with
/// snapshot(). clear() requires quiescence (no concurrent recorders) — it
/// is a test/driver operation, like Tracer::clear().
class FlightRecorder {
 public:
  /// Rank lanes: lane 0 is the driver (-1), lanes 1..kMaxLanes-1 hold ranks
  /// 0..kMaxLanes-2; larger ranks share the last lane.
  static constexpr int kMaxLanes = 65;
  static constexpr std::size_t kDefaultCapacity = 1024;  // events per lane

  explicit FlightRecorder(std::size_t capacity_per_lane = kDefaultCapacity);

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Runtime switch. The process-wide recorder defaults to ON (black boxes
  /// that need arming are empty when the plane goes down); the environment
  /// variable MINSGD_FLIGHT=off|0 disables it at startup.
  void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Records one event into the calling thread's rank lane. Lock-free;
  /// callers in src/ must go through MINSGD_FLIGHT so the enabled() gate
  /// stays in front of the call.
  void record(FlightKind kind, FlightOp op, int channel, std::int64_t tag,
              std::int64_t generation, std::int64_t bytes, std::int64_t arg);

  /// Copies the surviving events of every lane, ordered by timestamp.
  /// Safe against concurrent record(); mid-write slots are skipped.
  std::vector<FlightEvent> snapshot() const;

  /// Events ever recorded (including overwritten ones).
  std::int64_t total_recorded() const;

  /// Drops all events and resets the epoch. Requires quiescence.
  void clear();

  std::size_t capacity_per_lane() const { return capacity_; }

  /// Current time relative to the recorder epoch.
  std::int64_t now_ns() const;

 private:
  // One seqlock slot. seq == 0: never written; seq == i + 1: slot holds the
  // i-th event of its lane, fully published.
  struct Slot {
    std::atomic<std::uint64_t> seq{0};
    std::atomic<std::int64_t> t_ns{0};
    std::atomic<std::int64_t> meta{0};  // kind | op << 8 | channel << 16
    std::atomic<std::int64_t> tag{0};
    std::atomic<std::int64_t> gen{0};
    std::atomic<std::int64_t> bytes{0};
    std::atomic<std::int64_t> arg{0};
  };
  struct Lane {
    std::atomic<std::uint64_t> cursor{0};  // events ever written to the lane
    std::unique_ptr<Slot[]> slots;
  };

  static int lane_of(int rank) {
    if (rank < 0) return 0;
    return 1 + (rank < kMaxLanes - 1 ? rank : kMaxLanes - 2);
  }
  static int rank_of_lane(int lane) { return lane - 1; }

  std::size_t capacity_;
  std::atomic<bool> enabled_{true};
  std::atomic<std::int64_t> epoch_ns_;
  Lane lanes_[kMaxLanes];
};

/// Process-wide recorder all built-in instrumentation records into.
/// Enabled by default; MINSGD_FLIGHT=off|0 in the environment disables it,
/// MINSGD_FLIGHT_CAPACITY=<n> sizes the per-lane ring.
FlightRecorder& flight();

}  // namespace minsgd::obs

/// The sanctioned recording macro: the enabled() gate runs before any
/// argument-side work reaches the recorder. All flight instrumentation in
/// src/ must use this (analyzer check `flight-record`); tests may drive
/// FlightRecorder instances directly.
#define MINSGD_FLIGHT(kind, op, channel, tag, generation, bytes, arg)       \
  do {                                                                      \
    ::minsgd::obs::FlightRecorder& minsgd_flight_rec =                      \
        ::minsgd::obs::flight();                                            \
    if (minsgd_flight_rec.enabled()) {                                      \
      minsgd_flight_rec.record((kind), (op), (channel), (tag), (generation),\
                               (bytes), (arg));                             \
    }                                                                       \
  } while (false)

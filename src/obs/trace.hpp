// Tracer: where a training step's wall-clock time actually goes.
//
// The paper's systems argument is a time-breakdown argument: the scaling
// ratio of Table 6, the per-iteration comm costs of Table 11, and the
// comm-vs-compute curves of Figures 8-10 all divide a step into phases and
// compare their durations. The alpha-beta model (src/perf) *predicts* those
// phases; this tracer *measures* them. Every hot path emits RAII
// ScopedSpans (forward/backward per layer, optimizer step, each collective,
// loader, per-iteration trainer phases), buffered per thread and exported
// as Chrome/Perfetto `trace_event` JSON — load trace.json in
// chrome://tracing or ui.perfetto.dev and the step structure is visible —
// plus a plain-text summary (count/total/mean/p95 per span name).
//
// Cost policy: tracing is DISABLED at runtime by default. A disabled span
// is one relaxed atomic load and a branch; no clock is read, no string is
// built, nothing allocates. When enabled, spans append to
// a per-thread buffer; the buffer's mutex is uncontended on the hot path
// (only export/clear ever lock it from outside), so recording is effectively
// lock-free while staying clean under ThreadSanitizer.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace minsgd::obs {

/// Span categories used by the built-in instrumentation. Static strings so
/// spans store a pointer, not a copy.
namespace cat {
inline constexpr const char* kCompute = "compute";  // forward/backward/step
inline constexpr const char* kComm = "comm";        // collectives, p2p
inline constexpr const char* kData = "data";        // loader, augmentation
inline constexpr const char* kPhase = "phase";      // trainer iteration phases
inline constexpr const char* kEval = "eval";        // test-split evaluation
inline constexpr const char* kCluster = "cluster";  // rank lifetimes
}  // namespace cat

/// One completed span. `rank` is the SimCluster rank lane (-1 outside a
/// cluster); `depth` is the nesting depth on its thread at start time.
/// `bytes` and `label` are the two optional args the instrumentation needs
/// (payload size for comm spans, algorithm / model name elsewhere); -1 and
/// "" mean unset.
struct Span {
  std::string name;
  const char* category = "";
  std::int64_t start_ns = 0;  // relative to the tracer's epoch
  std::int64_t dur_ns = 0;
  int rank = -1;
  int depth = 0;
  std::uint32_t tid = 0;
  std::int64_t bytes = -1;
  int threads = -1;  // intra-op thread budget for parallel-kernel spans
  std::string label;
};

/// Aggregate statistics for one span name within one category.
struct SpanStat {
  std::string name;
  const char* category = "";
  std::int64_t count = 0;
  std::int64_t total_ns = 0;
  std::int64_t p95_ns = 0;
  std::int64_t max_ns = 0;
  int min_depth = 0;  // shallowest nesting observed; indentation in reports
  double mean_ns() const {
    return count ? static_cast<double>(total_ns) / static_cast<double>(count)
                 : 0.0;
  }
};

class Tracer;

/// Process-wide tracer all built-in instrumentation records into.
Tracer& tracer();

/// Sets the SimCluster rank lane for spans recorded by the calling thread.
/// Returns the previous value so scopes can nest/restore.
int set_thread_rank(int rank);
int thread_rank();

class Tracer {
 public:
  Tracer();

  /// Runtime switch; default off. Spans started while disabled record
  /// nothing even if the tracer is enabled before they close.
  void set_enabled(bool on);
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Appends a completed span (tests and non-RAII recorders). tid/rank are
  /// taken from `s` verbatim.
  void record(Span s);

  /// Copies every buffered span (all threads), ordered by start time.
  std::vector<Span> snapshot() const;
  std::size_t span_count() const;

  /// Drops all buffered spans and resets the epoch so the next recording
  /// starts at t=0. Buffers whose owning thread has exited (comm workers,
  /// elastic joiners) are pruned from the registry here — their spans were
  /// already exported by snapshot(), and without pruning a churn of
  /// short-lived threads would grow the registry without bound.
  void clear();

  /// Registered per-thread buffers, including detached ones not yet pruned
  /// (tests; a proxy for registry growth under thread churn).
  std::size_t thread_buffer_count() const;

  // -- export --------------------------------------------------------------
  /// Chrome/Perfetto trace_event JSON ("X" complete events, pid = rank lane,
  /// process_name metadata per lane).
  void write_chrome_trace(std::ostream& out) const;
  void write_chrome_trace(const std::string& path) const;

  /// Per-(category, name) statistics, grouped by category, largest total
  /// first within each.
  std::vector<SpanStat> summary() const;

  /// Plain-text hierarchical summary table of summary().
  void write_summary(std::ostream& out) const;

  /// Current time relative to the tracer epoch.
  std::int64_t now_ns() const;

 private:
  friend class ScopedSpan;

  struct ThreadBuffer {
    mutable std::mutex mu;  // uncontended in steady state: the owning
                            // thread records, outsiders only export/clear
    std::vector<Span> spans;
    std::uint32_t tid = 0;
    /// Set when the owning thread exits (its thread_local binding is
    /// destroyed). The registry's shared_ptr keeps the spans alive for
    /// export; the flag lets clear() prune the drained buffer.
    std::atomic<bool> detached{false};
  };

  /// The calling thread's buffer, registering it on first use.
  ThreadBuffer& local_buffer();

  std::atomic<bool> enabled_{false};
  std::atomic<std::int64_t> epoch_ns_;
  mutable std::mutex registry_mu_;
  std::vector<std::shared_ptr<ThreadBuffer>> buffers_;
  std::uint32_t next_tid_ = 0;
};

/// RAII span against the global tracer. Two-phase form supports dynamic
/// names without paying for the string when tracing is off:
///
///   obs::ScopedSpan sp;                       // inert
///   if (obs::tracer().enabled()) sp.start("fwd." + layer.name(), cat);
///
/// One-phase form for static names: obs::ScopedSpan sp("barrier", cat::kComm);
class ScopedSpan {
 public:
  ScopedSpan() = default;
  ScopedSpan(const char* name, const char* category) { start(name, category); }
  ScopedSpan(std::string name, const char* category) {
    start(std::move(name), category);
  }
  void start(const char* name, const char* category) {
    if (tracer().enabled()) begin(std::string(name), category);
  }
  void start(std::string name, const char* category) {
    if (tracer().enabled()) begin(std::move(name), category);
  }
  void set_bytes(std::int64_t bytes) { span_.bytes = bytes; }
  void set_label(std::string label) { span_.label = std::move(label); }
  void set_threads(int threads) { span_.threads = threads; }
  bool active() const { return active_; }
  /// Records the span now instead of at scope exit; idempotent.
  void stop();
  ~ScopedSpan() { stop(); }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  void begin(std::string name, const char* category);

  Span span_;
  bool active_ = false;
};

}  // namespace minsgd::obs

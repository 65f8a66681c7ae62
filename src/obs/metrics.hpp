// MetricsRegistry: named counters and gauges.
//
// Counters are monotonic (bytes moved, messages sent, iterations run);
// gauges are instantaneous values (LARS trust ratio of a layer, current
// learning rate). Both are create-on-first-use and safe to update from any
// thread. Components that keep their own counters (TrafficMeter) are
// published once per run by the trainer that owns them (train.traffic.*,
// see train/sync_replica.hpp), so each value has one name. Snapshots export as
// JSONL — one JSON object per line, appendable across a run, so
// training curves and traffic totals land in one greppable stream.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace minsgd::obs {

/// Monotonic counter. add() from any thread.
class Counter {
 public:
  void add(std::int64_t delta = 1) {
    v_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::int64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> v_{0};
};

/// Instantaneous value. set() from any thread; last writer wins.
class Gauge {
 public:
  void set(double value) { v_.store(value, std::memory_order_relaxed); }
  double value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// One snapshotted value.
struct Sample {
  std::string name;
  double value = 0.0;
  enum class Kind { kCounter, kGauge } kind = Kind::kGauge;
};

class MetricsRegistry {
 public:
  /// Process-wide registry the built-in instrumentation uses.
  static MetricsRegistry& instance();

  /// Returns the counter/gauge with this name, creating it on first use.
  /// References stay valid for the registry's lifetime.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);

  /// All counters and gauges, sorted by name.
  std::vector<Sample> snapshot() const;

  /// One JSON object line: {"name":value,...} with counters as integers.
  void write_jsonl_snapshot(std::ostream& out) const;

  /// Drops every counter and gauge (tests).
  void clear();

 private:
  mutable std::mutex mu_;
  // Node-based maps: references returned by counter()/gauge() must survive
  // later insertions.
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
};

/// Shorthand for the process-wide registry.
inline MetricsRegistry& metrics() { return MetricsRegistry::instance(); }

}  // namespace minsgd::obs

#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ostream>

namespace minsgd::obs {

MetricsRegistry& MetricsRegistry::instance() {
  static MetricsRegistry r;
  return r;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  std::lock_guard lk(mu_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard lk(mu_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

std::vector<Sample> MetricsRegistry::snapshot() const {
  std::vector<Sample> out;
  {
    std::lock_guard lk(mu_);
    for (const auto& [name, c] : counters_) {
      out.push_back({name, static_cast<double>(c->value()),
                     Sample::Kind::kCounter});
    }
    for (const auto& [name, g] : gauges_) {
      out.push_back({name, g->value(), Sample::Kind::kGauge});
    }
  }
  std::sort(out.begin(), out.end(),
            [](const Sample& a, const Sample& b) { return a.name < b.name; });
  return out;
}

void MetricsRegistry::write_jsonl_snapshot(std::ostream& out) const {
  const auto samples = snapshot();
  out << "{";
  bool first = true;
  char buf[64];
  for (const auto& s : samples) {
    out << (first ? "" : ",") << "\"" << s.name << "\":";
    if (s.kind == Sample::Kind::kCounter) {
      out << static_cast<std::int64_t>(s.value);
    } else if (std::isfinite(s.value)) {
      std::snprintf(buf, sizeof(buf), "%.9g", s.value);
      out << buf;
    } else {
      out << "null";  // JSON has no NaN/Inf
    }
    first = false;
  }
  out << "}\n";
}

void MetricsRegistry::clear() {
  std::lock_guard lk(mu_);
  counters_.clear();
  gauges_.clear();
}

}  // namespace minsgd::obs

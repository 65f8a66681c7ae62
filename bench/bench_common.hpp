// Shared infrastructure for the experiment-reproduction benches.
//
// Each bench binary reproduces one table or figure of the paper: it prints
// the paper's published rows next to what this repository measures (proxy
// training runs, simulated-cluster traffic) or computes (perf model), and
// writes a machine-readable CSV to ./bench_results/.
#pragma once

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "core/csv.hpp"
#include "obs/json.hpp"

namespace minsgd::bench {

/// Directory for CSV artifacts (created on first use).
inline std::string results_dir() {
  const std::string dir = "bench_results";
  std::filesystem::create_directories(dir);
  return dir;
}

inline std::string csv_path(const std::string& name) {
  return results_dir() + "/" + name + ".csv";
}

/// Prints the standard bench banner.
inline void banner(const std::string& id, const std::string& claim) {
  std::printf("=============================================================\n");
  std::printf("%s\n", id.c_str());
  std::printf("Paper claim: %s\n", claim.c_str());
  std::printf("=============================================================\n");
}

inline void section(const std::string& title) {
  std::printf("\n--- %s ---\n", title.c_str());
}

/// Machine-readable per-bench summary written alongside the CSV:
/// bench_results/<name>.json, one flat object of headline metrics (peak
/// images/s, ms/iteration, logits checksum, overheads). The CSV keeps the
/// full sweep; the JSON is for dashboards and regression diffs that only
/// want the headline numbers without parsing the sweep shape.
class JsonSummary {
 public:
  explicit JsonSummary(std::string name) : name_(std::move(name)) {}

  JsonSummary& add(const std::string& key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.10g", value);
    entries_.emplace_back(key, buf);
    return *this;
  }
  JsonSummary& add(const std::string& key, std::int64_t value) {
    entries_.emplace_back(key, std::to_string(value));
    return *this;
  }
  JsonSummary& add_string(const std::string& key, const std::string& value) {
    std::ostringstream quoted;
    quoted << '"';
    obs::json::write_escaped(quoted, value);
    quoted << '"';
    entries_.emplace_back(key, quoted.str());
    return *this;
  }

  /// Writes bench_results/<name>.json and returns its path.
  std::string write() const {
    const std::string path = results_dir() + "/" + name_ + ".json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) return path;
    std::fprintf(f, "{\"bench\":\"%s\"", name_.c_str());
    for (const auto& [key, value] : entries_) {
      std::fprintf(f, ",\"%s\":%s", key.c_str(), value.c_str());
    }
    std::fprintf(f, "}\n");
    std::fclose(f);
    return path;
  }

 private:
  std::string name_;
  std::vector<std::pair<std::string, std::string>> entries_;
};

/// Formats seconds as the paper prints times ("20m", "6h 10m", "14d").
inline std::string human_time(double seconds) {
  char buf[64];
  if (seconds < 120) {
    std::snprintf(buf, sizeof(buf), "%.1fs", seconds);
  } else if (seconds < 3 * 3600) {
    std::snprintf(buf, sizeof(buf), "%.0fm", seconds / 60.0);
  } else if (seconds < 2 * 86400) {
    std::snprintf(buf, sizeof(buf), "%.1fh", seconds / 3600.0);
  } else {
    std::snprintf(buf, sizeof(buf), "%.1fd", seconds / 86400.0);
  }
  return buf;
}

}  // namespace minsgd::bench

#include <chrono>

#include "core/proxy.hpp"
#include "core/recipe.hpp"

namespace minsgd::bench {

/// One proxy training run's reportable outcome.
struct RunOutcome {
  double final_acc = 0.0;
  double best_acc = 0.0;
  bool diverged = false;
  double wall_seconds = 0.0;
  train::TrainResult full;
};

/// Trains a proxy recipe and times it. Accuracy of a diverged run is
/// reported the way the paper does (Table 5's 0.001 rows): the achieved
/// (chance-level) test accuracy, not NaN.
inline RunOutcome run_proxy(
    const std::function<std::unique_ptr<nn::Network>()>& factory,
    const core::RecipeConfig& rc, const data::SyntheticImageNet& ds) {
  const auto t0 = std::chrono::steady_clock::now();
  auto res = core::run_recipe(factory, rc, ds);
  const auto dt =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0);
  RunOutcome out;
  out.final_acc = res.final_test_acc;
  out.best_acc = res.best_test_acc;
  out.diverged = res.diverged;
  out.wall_seconds = dt.count();
  out.full = std::move(res);
  return out;
}

}  // namespace minsgd::bench

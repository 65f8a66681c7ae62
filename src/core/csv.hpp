// Minimal CSV emitter for experiment outputs.
//
// Benches write their series here so EXPERIMENTS.md can reference stable
// artifacts (bench binaries also print human-readable tables to stdout).
#pragma once

#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace minsgd::core {

class CsvWriter {
 public:
  /// Opens `path` for writing and emits the header row.
  CsvWriter(const std::string& path, const std::vector<std::string>& columns)
      : out_(path), ncols_(columns.size()) {
    if (!out_) throw std::runtime_error("CsvWriter: cannot open " + path);
    for (std::size_t i = 0; i < columns.size(); ++i) {
      out_ << (i ? "," : "") << columns[i];
    }
    out_ << "\n";
  }

  /// Appends one row; values are formatted with operator<<.
  template <typename... Ts>
  void row(const Ts&... values) {
    if (sizeof...(values) != ncols_) {
      throw std::invalid_argument("CsvWriter: column count mismatch");
    }
    std::ostringstream os;
    bool first = true;
    ((os << (first ? "" : ",") << values, first = false), ...);
    out_ << os.str() << "\n";
  }

 private:
  std::ofstream out_;
  std::size_t ncols_;
};

}  // namespace minsgd::core

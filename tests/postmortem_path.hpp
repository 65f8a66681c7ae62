// Postmortem dump routing for the test binaries.
//
// SimCluster::run writes a postmortem (obs/postmortem.hpp) whenever a rank
// throws, so a suite that injects a crash, a timeout or a rejected argument
// inside a cluster would leave postmortem.json in ctest's working
// directory. Including this header routes every dump of the binary into
// the gtest temp dir for the whole run (one file per process, removed at
// exit); ScopedPostmortemPath gives one test a named dump to read back.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <optional>
#include <string>

#include "obs/flight.hpp"
#include "obs/postmortem.hpp"

namespace minsgd::testing {

/// RAII: points the dump at `name` inside the gtest temp dir with a clear
/// flight recorder; restores the previous path and removes the file after.
struct ScopedPostmortemPath {
  std::string path;
  std::string previous = obs::postmortem_path();
  explicit ScopedPostmortemPath(const std::string& name)
      : path(::testing::TempDir() + "/" + name) {
    obs::set_postmortem_path(path);
    obs::flight().clear();
  }
  ~ScopedPostmortemPath() {
    std::remove(path.c_str());
    obs::set_postmortem_path(previous);
    obs::flight().clear();
  }
  ScopedPostmortemPath(const ScopedPostmortemPath&) = delete;
  ScopedPostmortemPath& operator=(const ScopedPostmortemPath&) = delete;
};

/// Holds a per-process ScopedPostmortemPath for the binary's whole run.
class TempDirPostmortems : public ::testing::Environment {
 public:
  void SetUp() override {
    scope_.emplace("postmortem-" + std::to_string(::getpid()) + ".json");
  }
  void TearDown() override { scope_.reset(); }

 private:
  std::optional<ScopedPostmortemPath> scope_;
};

inline ::testing::Environment* const kTempDirPostmortems =
    ::testing::AddGlobalTestEnvironment(new TempDirPostmortems);

}  // namespace minsgd::testing

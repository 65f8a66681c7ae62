// Postmortem: turn a crash into one merged, analyzable artifact.
//
// When a distributed run dies, the question is never "which rank threw" —
// SimCluster::run already aggregates that — but "what was everyone doing
// when it happened": which collective was in flight, who had arrived, who
// had not, what the membership generation was, when the last checkpoint
// landed. This module is the dump-and-analyze half of the flight recorder
// (obs/flight.hpp):
//
//   * dump_postmortem() snapshots every rank lane of the process-wide
//     recorder and writes one merged postmortem.json (schema
//     "minsgd-postmortem-v1": run-level reason + per-rank errors + the last
//     N events of every rank). It is wired into (a) SimCluster::run's
//     all-rank error aggregation — which is where CommTimeout / RankFailure
//     / ClusterAborted unwinds converge — and (b) MINSGD_CHECK failure via
//     arm_postmortem_on_check_failure(), so even an abort()ing invariant
//     violation leaves the black box behind.
//   * analyze_flight() is the cross-rank join: collective events are
//     grouped by (channel, tag, generation); per group it computes arrival
//     skew (first/last begin) and charges the margin to the last arriver,
//     which accumulates into per-rank straggler attribution. It also splits
//     per-step collective time into exposed (channel 0, the rank thread
//     blocks) vs overlapped (channel 1, the async engine's worker), and
//     extracts the elastic reconfiguration timeline from membership events.
//
// examples/postmortem <dump.json> prints write_analysis() for any
// postmortem.json offline, without the binary that wrote it.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "obs/flight.hpp"

namespace minsgd::obs {

// -- dump -------------------------------------------------------------------

/// Run-level context written into the dump next to the events.
struct PostmortemInfo {
  std::string reason;  // aggregated failure / check message
  int world = 0;       // ranks of the failed run (0 = unknown)
  /// Per-rank error strings, (rank, what). Abort victims included.
  std::vector<std::pair<int, std::string>> rank_errors;
};

/// Where dump_postmortem() writes. Default "postmortem.json" in the working
/// directory; the empty string disables dumping. Thread-safe.
void set_postmortem_path(std::string path);
std::string postmortem_path();

/// Serializes `info` + `events` as minsgd-postmortem-v1 JSON.
void write_postmortem(std::ostream& out, const PostmortemInfo& info,
                      std::span<const FlightEvent> events);

/// Snapshots the process-wide flight recorder and writes the merged dump to
/// postmortem_path() (temp file + rename, so a dump racing a reader — or
/// another dumping process under parallel ctest — is never seen half
/// written). Returns false when dumping is disabled or the write failed;
/// never throws.
bool dump_postmortem(const PostmortemInfo& info);

/// Registers a MINSGD_CHECK failure hook that dumps a postmortem (reason =
/// the check message) before abort. Idempotent; SimCluster arms it on
/// construction so any cluster run is covered.
void arm_postmortem_on_check_failure();

// -- read back --------------------------------------------------------------

/// A parsed minsgd-postmortem-v1 file.
struct Postmortem {
  PostmortemInfo info;
  std::vector<FlightEvent> events;  // merged, timestamp-ordered
};

/// Parses a dump (strict; throws std::runtime_error on malformed input or
/// wrong schema).
Postmortem read_postmortem(const std::string& text);
Postmortem read_postmortem_file(const std::string& path);

// -- cross-rank analysis ----------------------------------------------------

/// One collective joined across ranks by (channel, tag, generation).
struct CollectiveGroup {
  int channel = 0;
  std::int64_t tag = 0;
  std::int64_t generation = 0;
  FlightOp op = FlightOp::kNone;
  int ranks_seen = 0;     // distinct ranks that recorded a begin
  int ranks_expected = 0; // world of the generation (0 = unknown)
  std::int64_t first_begin_ns = 0;
  std::int64_t last_begin_ns = 0;
  int first_rank = -1;
  int last_rank = -1;       // the straggler of this group
  std::int64_t skew_ns = 0; // last begin - first begin
  /// last begin - second-last begin: the margin only the last arriver is
  /// responsible for (the attribution charge).
  std::int64_t margin_ns = 0;
};

/// Straggler attribution for one rank, accumulated over matched groups.
struct RankAttribution {
  int rank = -1;
  std::int64_t groups = 0;         // groups this rank participated in
  std::int64_t arrived_last = 0;   // groups where it was the last arriver
  std::int64_t lag_ns = 0;         // sum of margin_ns it was charged
};

/// Per-rank collective time split by channel, per optimizer step.
struct StepCommRow {
  int rank = -1;
  std::int64_t steps = 0;          // kStep events recorded by the rank
  std::int64_t exposed_ns = 0;     // channel 0: the rank thread blocked
  std::int64_t overlapped_ns = 0;  // channel 1: async engine worker
};

/// One committed membership view, for the reconfig timeline.
struct ReconfigPoint {
  std::int64_t t_ns = 0;
  std::int64_t generation = 0;
  int world = 0;
};

struct FlightAnalysis {
  int world = 0;
  std::int64_t groups = 0;          // collective groups seen
  std::int64_t matched_groups = 0;  // begins from every expected rank
  double match_rate = 0.0;          // matched / groups (1.0 when no groups)
  int straggler_rank = -1;          // most-charged rank (-1: no evidence)
  std::int64_t straggler_lag_ns = 0;
  std::vector<RankAttribution> ranks;     // by rank, ascending
  std::vector<CollectiveGroup> worst;     // top skew, descending
  std::vector<StepCommRow> step_comm;     // by rank, ascending
  std::vector<ReconfigPoint> reconfigs;   // by time
  std::int64_t fault_events = 0;
  std::int64_t crash_events = 0;
};

/// Joins `events` across ranks. `world` seeds the expected rank count for
/// generation 0; later generations take theirs from membership commit
/// events. Worlds <= 0 mean "derive from the events" (max rank + 1).
FlightAnalysis analyze_flight(std::span<const FlightEvent> events, int world);

/// Human-readable report of an analysis.
void write_analysis(std::ostream& out, const FlightAnalysis& a);

}  // namespace minsgd::obs

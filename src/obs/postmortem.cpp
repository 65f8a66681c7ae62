#include "obs/postmortem.hpp"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <ostream>
#include <sstream>
#include <tuple>

#include "core/check.hpp"
#include "obs/json.hpp"

namespace minsgd::obs {

namespace {

constexpr const char* kSchema = "minsgd-postmortem-v1";

// Every enumerator, for string round-tripping. Extending the enums without
// extending these lists breaks the read-back tests, on purpose.
constexpr FlightKind kAllKinds[] = {
    FlightKind::kNone,       FlightKind::kCollBegin, FlightKind::kCollEnd,
    FlightKind::kArrive,     FlightKind::kStep,      FlightKind::kMembership,
    FlightKind::kCheckpoint, FlightKind::kFault,     FlightKind::kCrash,
};
constexpr FlightOp kAllOps[] = {
    FlightOp::kNone,          FlightOp::kBarrier,
    FlightOp::kBroadcast,     FlightOp::kReduce,
    FlightOp::kAllgather,     FlightOp::kAllreduceStar,
    FlightOp::kAllreduceRing, FlightOp::kAllreduceTree,
    FlightOp::kAllreduceRhd,  FlightOp::kDrop,
    FlightOp::kDelay,         FlightOp::kDuplicate,
    FlightOp::kCorrupt,       FlightOp::kCrashed,
    FlightOp::kTimeout,       FlightOp::kStall,
    FlightOp::kSave,          FlightOp::kLoad,
    FlightOp::kCommit,        FlightOp::kRendezvous,
};

FlightKind kind_from_string(const std::string& s) {
  for (const FlightKind k : kAllKinds) {
    if (s == to_string(k)) return k;
  }
  throw std::runtime_error("postmortem: unknown event kind \"" + s + "\"");
}

FlightOp op_from_string(const std::string& s) {
  for (const FlightOp o : kAllOps) {
    if (s == to_string(o)) return o;
  }
  throw std::runtime_error("postmortem: unknown event op \"" + s + "\"");
}

std::int64_t as_int(const json::Value& v) {
  return static_cast<std::int64_t>(v.as_number());
}

struct PathState {
  std::mutex mu;
  std::string path = "postmortem.json";
};

PathState& path_state() {
  static PathState* s = new PathState();  // leaked: read on abort paths
  return *s;
}

void check_failure_dump(const char* message) {
  PostmortemInfo info;
  info.reason = message ? message : "MINSGD_CHECK failure";
  dump_postmortem(info);
}

}  // namespace

void set_postmortem_path(std::string path) {
  PathState& s = path_state();
  std::lock_guard lk(s.mu);
  s.path = std::move(path);
}

std::string postmortem_path() {
  PathState& s = path_state();
  std::lock_guard lk(s.mu);
  return s.path;
}

void write_postmortem(std::ostream& out, const PostmortemInfo& info,
                      std::span<const FlightEvent> events) {
  out << "{\"schema\":\"" << kSchema << "\",\"reason\":\"";
  json::write_escaped(out, info.reason);
  out << "\",\"world\":" << info.world << ",\"errors\":[";
  bool first = true;
  for (const auto& [rank, what] : info.rank_errors) {
    out << (first ? "" : ",") << "{\"rank\":" << rank << ",\"what\":\"";
    json::write_escaped(out, what);
    out << "\"}";
    first = false;
  }
  out << "],\"events\":[";
  first = true;
  for (const FlightEvent& e : events) {
    out << (first ? "" : ",\n") << "{\"t_ns\":" << e.t_ns << ",\"kind\":\""
        << to_string(e.kind) << "\",\"op\":\"" << to_string(e.op)
        << "\",\"rank\":" << e.rank << ",\"chan\":" << e.channel
        << ",\"tag\":" << e.tag << ",\"gen\":" << e.generation
        << ",\"bytes\":" << e.bytes << ",\"arg\":" << e.arg << "}";
    first = false;
  }
  out << "]}\n";
}

bool dump_postmortem(const PostmortemInfo& info) {
  const std::string path = postmortem_path();
  if (path.empty()) return false;
  // Temp file + rename: a reader (or a second dumping process under
  // parallel ctest) never observes a half-written dump. The pid suffix
  // keeps concurrent processes off each other's temp file.
  const std::string tmp =
      path + ".tmp." + std::to_string(static_cast<long>(::getpid()));
  try {
    const std::vector<FlightEvent> events = flight().snapshot();
    {
      std::ofstream out(tmp, std::ios::trunc);
      if (!out) return false;
      write_postmortem(out, info, events);
      if (!out) return false;
    }
    std::filesystem::rename(tmp, path);
    return true;
  } catch (...) {
    std::error_code ec;
    std::filesystem::remove(tmp, ec);
    return false;
  }
}

void arm_postmortem_on_check_failure() {
  set_check_failure_hook(&check_failure_dump);
}

Postmortem read_postmortem(const std::string& text) {
  const json::Value root = json::parse(text);
  if (!root.contains("schema") || root.at("schema").as_string() != kSchema) {
    throw std::runtime_error("postmortem: missing or unknown schema");
  }
  Postmortem pm;
  pm.info.reason = root.at("reason").as_string();
  pm.info.world = static_cast<int>(as_int(root.at("world")));
  for (const json::Value& e : root.at("errors").as_array()) {
    pm.info.rank_errors.emplace_back(static_cast<int>(as_int(e.at("rank"))),
                                     e.at("what").as_string());
  }
  for (const json::Value& v : root.at("events").as_array()) {
    FlightEvent e;
    e.t_ns = as_int(v.at("t_ns"));
    e.kind = kind_from_string(v.at("kind").as_string());
    e.op = op_from_string(v.at("op").as_string());
    e.rank = static_cast<int>(as_int(v.at("rank")));
    e.channel = static_cast<int>(as_int(v.at("chan")));
    e.tag = as_int(v.at("tag"));
    e.generation = as_int(v.at("gen"));
    e.bytes = as_int(v.at("bytes"));
    e.arg = as_int(v.at("arg"));
    pm.events.push_back(e);
  }
  return pm;
}

Postmortem read_postmortem_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("postmortem: cannot open " + path);
  std::ostringstream os;
  os << in.rdbuf();
  return read_postmortem(os.str());
}

FlightAnalysis analyze_flight(std::span<const FlightEvent> events,
                              int world) {
  FlightAnalysis a;
  int max_rank = -1;
  for (const FlightEvent& e : events) max_rank = std::max(max_rank, e.rank);
  a.world = world > 0 ? world : max_rank + 1;

  // Expected participant count per generation: the world argument seeds
  // generation 0; every committed view declares its own (kMembership events
  // carry world in arg).
  std::map<std::int64_t, int> gen_world;
  for (const FlightEvent& e : events) {
    if (e.kind == FlightKind::kMembership) {
      gen_world[e.generation] = static_cast<int>(e.arg);
      a.reconfigs.push_back({e.t_ns, e.generation, static_cast<int>(e.arg)});
    } else if (e.kind == FlightKind::kFault) {
      ++a.fault_events;
    } else if (e.kind == FlightKind::kCrash) {
      ++a.crash_events;
    }
  }
  std::sort(a.reconfigs.begin(), a.reconfigs.end(),
            [](const ReconfigPoint& x, const ReconfigPoint& y) {
              return x.t_ns < y.t_ns;
            });

  // The cross-rank join: one group per (channel, tag, generation, op). The
  // op disambiguates an allreduce wrapper from the nested collective that
  // mints the same first tag (allreduce-tree's inner reduce).
  using Key = std::tuple<int, std::int64_t, std::int64_t, FlightOp>;
  struct GroupAcc {
    std::map<int, std::int64_t> begin_ns;  // rank -> earliest begin
  };
  std::map<Key, GroupAcc> groups;
  // Per-(rank, channel) collective intervals for the exposed/overlapped
  // split; open_begins pairs each end with its begin.
  std::map<std::tuple<int, int, std::int64_t, std::int64_t, FlightOp>,
           std::int64_t>
      open_begins;
  std::map<std::pair<int, int>,
           std::vector<std::pair<std::int64_t, std::int64_t>>>
      intervals;
  std::map<int, std::int64_t> steps_by_rank;

  for (const FlightEvent& e : events) {
    if (e.kind == FlightKind::kStep) {
      ++steps_by_rank[e.rank];
    } else if (e.kind == FlightKind::kCollBegin) {
      auto& g = groups[{e.channel, e.tag, e.generation, e.op}];
      auto [it, inserted] = g.begin_ns.emplace(e.rank, e.t_ns);
      if (!inserted) it->second = std::min(it->second, e.t_ns);
      open_begins[{e.rank, e.channel, e.tag, e.generation, e.op}] = e.t_ns;
    } else if (e.kind == FlightKind::kCollEnd) {
      const auto it =
          open_begins.find({e.rank, e.channel, e.tag, e.generation, e.op});
      if (it != open_begins.end()) {
        intervals[{e.rank, e.channel}].push_back({it->second, e.t_ns});
        open_begins.erase(it);
      }
    }
  }

  std::map<int, RankAttribution> ranks;
  std::vector<CollectiveGroup> all;
  all.reserve(groups.size());
  for (const auto& [key, acc] : groups) {
    CollectiveGroup g;
    g.channel = std::get<0>(key);
    g.tag = std::get<1>(key);
    g.generation = std::get<2>(key);
    g.op = std::get<3>(key);
    g.ranks_seen = static_cast<int>(acc.begin_ns.size());
    const auto gw = gen_world.find(g.generation);
    g.ranks_expected = gw != gen_world.end() ? gw->second : a.world;

    // Arrival order: earliest begin first. The last arriver is charged only
    // the margin over the second-last — the delay nobody else shares.
    std::vector<std::pair<std::int64_t, int>> order;  // (t, rank)
    order.reserve(acc.begin_ns.size());
    for (const auto& [rank, t] : acc.begin_ns) order.push_back({t, rank});
    std::sort(order.begin(), order.end());
    g.first_begin_ns = order.front().first;
    g.first_rank = order.front().second;
    g.last_begin_ns = order.back().first;
    g.last_rank = order.back().second;
    g.skew_ns = g.last_begin_ns - g.first_begin_ns;
    g.margin_ns = order.size() >= 2
                      ? g.last_begin_ns - order[order.size() - 2].first
                      : 0;

    for (const auto& [rank, t] : acc.begin_ns) {
      auto& ra = ranks[rank];
      ra.rank = rank;
      ++ra.groups;
    }
    if (order.size() >= 2) {
      auto& ra = ranks[g.last_rank];
      ++ra.arrived_last;
      ra.lag_ns += g.margin_ns;
    }

    ++a.groups;
    if (g.ranks_expected > 0 && g.ranks_seen == g.ranks_expected) {
      ++a.matched_groups;
    }
    all.push_back(g);
  }
  a.match_rate = a.groups == 0 ? 1.0
                               : static_cast<double>(a.matched_groups) /
                                     static_cast<double>(a.groups);

  for (auto& [rank, ra] : ranks) a.ranks.push_back(ra);
  for (const auto& ra : a.ranks) {
    if (ra.lag_ns > a.straggler_lag_ns) {
      a.straggler_lag_ns = ra.lag_ns;
      a.straggler_rank = ra.rank;
    }
  }

  std::sort(all.begin(), all.end(),
            [](const CollectiveGroup& x, const CollectiveGroup& y) {
              return x.skew_ns > y.skew_ns;
            });
  const std::size_t keep = std::min<std::size_t>(all.size(), 8);
  a.worst.assign(all.begin(),
                 all.begin() + static_cast<std::ptrdiff_t>(keep));

  // Exposed (channel 0: the rank thread blocked in a collective) vs
  // overlapped (channel 1: the async engine's worker) time, as the union of
  // each rank's collective intervals — nested spans (allreduce-tree over
  // reduce + broadcast) are not double counted.
  std::map<int, StepCommRow> rows;
  for (auto& [key, ivals] : intervals) {
    const auto [rank, channel] = key;
    std::sort(ivals.begin(), ivals.end());
    std::int64_t total = 0;
    std::int64_t cur_b = ivals.front().first;
    std::int64_t cur_e = ivals.front().second;
    for (const auto& [b, e] : ivals) {
      if (b > cur_e) {
        total += cur_e - cur_b;
        cur_b = b;
        cur_e = e;
      } else {
        cur_e = std::max(cur_e, e);
      }
    }
    total += cur_e - cur_b;
    auto& row = rows[rank];
    row.rank = rank;
    if (channel == 0) {
      row.exposed_ns += total;
    } else if (channel == 1) {
      row.overlapped_ns += total;
    }
  }
  for (const auto& [rank, n] : steps_by_rank) {
    auto& row = rows[rank];
    row.rank = rank;
    row.steps = n;
  }
  for (const auto& [rank, row] : rows) a.step_comm.push_back(row);
  return a;
}

void write_analysis(std::ostream& out, const FlightAnalysis& a) {
  char line[256];
  std::snprintf(line, sizeof(line),
                "postmortem: world=%d, %lld collective group(s), %lld "
                "matched across ranks (%.1f%%)\n",
                a.world, static_cast<long long>(a.groups),
                static_cast<long long>(a.matched_groups),
                100.0 * a.match_rate);
  out << line;
  if (a.straggler_rank >= 0) {
    std::snprintf(line, sizeof(line),
                  "straggler: rank %d (+%.3f ms total arrival lag)\n",
                  a.straggler_rank,
                  static_cast<double>(a.straggler_lag_ns) / 1e6);
    out << line;
  } else {
    out << "straggler: no attribution evidence\n";
  }
  for (const auto& r : a.ranks) {
    std::snprintf(line, sizeof(line),
                  "  rank %2d: %lld group(s), arrived last %lld times, "
                  "charged %.3f ms\n",
                  r.rank, static_cast<long long>(r.groups),
                  static_cast<long long>(r.arrived_last),
                  static_cast<double>(r.lag_ns) / 1e6);
    out << line;
  }
  if (!a.worst.empty()) {
    out << "worst arrival skew:\n";
    for (const auto& g : a.worst) {
      std::snprintf(
          line, sizeof(line),
          "  chan %d gen %lld tag %lld %-15s %d/%d ranks, skew %.3f ms, "
          "last rank %d (+%.3f ms)\n",
          g.channel, static_cast<long long>(g.generation),
          static_cast<long long>(g.tag), to_string(g.op), g.ranks_seen,
          g.ranks_expected, static_cast<double>(g.skew_ns) / 1e6,
          g.last_rank, static_cast<double>(g.margin_ns) / 1e6);
      out << line;
    }
  }
  if (!a.step_comm.empty()) {
    out << "per-step comm (exposed = main channel, overlapped = async):\n";
    for (const auto& r : a.step_comm) {
      const double steps =
          r.steps > 0 ? static_cast<double>(r.steps) : 1.0;
      std::snprintf(line, sizeof(line),
                    "  rank %2d: %lld step(s), exposed %.3f ms/step, "
                    "overlapped %.3f ms/step\n",
                    r.rank, static_cast<long long>(r.steps),
                    static_cast<double>(r.exposed_ns) / steps / 1e6,
                    static_cast<double>(r.overlapped_ns) / steps / 1e6);
      out << line;
    }
  }
  if (!a.reconfigs.empty()) {
    out << "membership timeline:\n";
    for (const auto& rc : a.reconfigs) {
      std::snprintf(line, sizeof(line),
                    "  t=%.3f ms: generation %lld committed, world %d\n",
                    static_cast<double>(rc.t_ns) / 1e6,
                    static_cast<long long>(rc.generation), rc.world);
      out << line;
    }
  }
  std::snprintf(line, sizeof(line),
                "fault events: %lld, crash events: %lld\n",
                static_cast<long long>(a.fault_events),
                static_cast<long long>(a.crash_events));
  out << line;
}

}  // namespace minsgd::obs

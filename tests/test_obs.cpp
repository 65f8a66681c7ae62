// Tracer, MetricsRegistry, per-collective traffic attribution and the
// flight recorder. Trace and metrics output is validated by round-tripping
// through a real JSON parser (obs/json.hpp), not substring greps: a trace
// Chrome cannot load is a bug.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "comm/cluster.hpp"
#include "obs/flight.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/postmortem.hpp"
#include "obs/trace.hpp"
#include "tensor/context.hpp"
#include "postmortem_path.hpp"

namespace minsgd {
namespace {

/// Every test starts from an empty tracer/registry and leaves tracing off;
/// the tracer and registry are process-wide singletons.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::tracer().set_enabled(false);
    obs::tracer().clear();
    obs::metrics().clear();
  }
  void TearDown() override {
    obs::tracer().set_enabled(false);
    obs::tracer().clear();
    obs::metrics().clear();
  }
};

// -- tracer basics ----------------------------------------------------------

TEST_F(ObsTest, DisabledByDefaultRecordsNothing) {
  ASSERT_FALSE(obs::tracer().enabled());
  {
    obs::ScopedSpan sp("should.not.appear", obs::cat::kCompute);
    obs::ScopedSpan sp2(std::string("dynamic.") + "name", obs::cat::kComm);
    sp2.set_bytes(123);
  }
  EXPECT_EQ(obs::tracer().span_count(), 0u);
  EXPECT_TRUE(obs::tracer().snapshot().empty());
  EXPECT_TRUE(obs::tracer().summary().empty());
}

TEST_F(ObsTest, SpanStartedWhileDisabledStaysUnrecorded) {
  obs::ScopedSpan sp("started.disabled", obs::cat::kCompute);
  obs::tracer().set_enabled(true);  // enable before the span closes
  sp.stop();
  EXPECT_EQ(obs::tracer().span_count(), 0u);
}

TEST_F(ObsTest, RecordsNameCategoryNestingAndArgs) {
  obs::tracer().set_enabled(true);
  {
    obs::ScopedSpan outer("outer", obs::cat::kPhase);
    {
      obs::ScopedSpan inner("inner", obs::cat::kComm);
      inner.set_bytes(4096);
      inner.set_label("ring");
    }
  }
  const auto spans = obs::tracer().snapshot();
  ASSERT_EQ(spans.size(), 2u);
  // snapshot() orders by start time: outer first.
  EXPECT_EQ(spans[0].name, "outer");
  EXPECT_STREQ(spans[0].category, obs::cat::kPhase);
  EXPECT_EQ(spans[0].depth, 0);
  EXPECT_EQ(spans[1].name, "inner");
  EXPECT_EQ(spans[1].depth, 1);
  EXPECT_EQ(spans[1].bytes, 4096);
  EXPECT_EQ(spans[1].label, "ring");
  // The inner span is contained in the outer one.
  EXPECT_GE(spans[1].start_ns, spans[0].start_ns);
  EXPECT_LE(spans[1].start_ns + spans[1].dur_ns,
            spans[0].start_ns + spans[0].dur_ns);
}

TEST_F(ObsTest, StopIsIdempotentAndEndsTheSpanEarly) {
  obs::tracer().set_enabled(true);
  obs::ScopedSpan sp("early", obs::cat::kCompute);
  sp.stop();
  sp.stop();  // second stop must not record again
  EXPECT_EQ(obs::tracer().span_count(), 1u);
  EXPECT_FALSE(sp.active());
}

TEST_F(ObsTest, ClearDropsSpansAndResetsEpoch) {
  obs::tracer().set_enabled(true);
  { obs::ScopedSpan sp("a", obs::cat::kCompute); }
  ASSERT_EQ(obs::tracer().span_count(), 1u);
  obs::tracer().clear();
  EXPECT_EQ(obs::tracer().span_count(), 0u);
  { obs::ScopedSpan sp("b", obs::cat::kCompute); }
  const auto spans = obs::tracer().snapshot();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_GE(spans[0].start_ns, 0);
}

// -- summary math -----------------------------------------------------------

TEST_F(ObsTest, SummaryComputesCountTotalMeanAndNearestRankP95) {
  // Inject 100 spans with durations 1..100ns directly; nearest-rank p95 of
  // {1..100} is the 95th value.
  for (int i = 1; i <= 100; ++i) {
    obs::Span s;
    s.name = "op";
    s.category = obs::cat::kCompute;
    s.start_ns = i;
    s.dur_ns = i;
    obs::tracer().record(std::move(s));
  }
  const auto stats = obs::tracer().summary();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].name, "op");
  EXPECT_EQ(stats[0].count, 100);
  EXPECT_EQ(stats[0].total_ns, 5050);
  EXPECT_DOUBLE_EQ(stats[0].mean_ns(), 50.5);
  EXPECT_EQ(stats[0].p95_ns, 95);
  EXPECT_EQ(stats[0].max_ns, 100);
}

TEST_F(ObsTest, SummaryP95SmallSamples) {
  // n = 1: p95 is the only sample. n = 2: nearest-rank index 2 -> max.
  obs::Span s;
  s.name = "one";
  s.category = obs::cat::kCompute;
  s.dur_ns = 7;
  obs::tracer().record(s);
  s.name = "two";
  s.dur_ns = 10;
  obs::tracer().record(s);
  s.dur_ns = 20;
  obs::tracer().record(s);
  for (const auto& st : obs::tracer().summary()) {
    if (st.name == "one") {
      EXPECT_EQ(st.p95_ns, 7);
    }
    if (st.name == "two") {
      EXPECT_EQ(st.p95_ns, 20);
    }
  }
}

TEST_F(ObsTest, SummaryGroupsByCategoryAndName) {
  obs::Span s;
  s.category = obs::cat::kCompute;
  s.name = "x";
  s.dur_ns = 5;
  obs::tracer().record(s);
  obs::tracer().record(s);
  s.category = obs::cat::kComm;  // same name, different category: own row
  obs::tracer().record(s);
  const auto stats = obs::tracer().summary();
  ASSERT_EQ(stats.size(), 2u);
  std::int64_t total = 0;
  for (const auto& st : stats) total += st.count;
  EXPECT_EQ(total, 3);
}

// -- concurrent recording + chrome export -----------------------------------

TEST_F(ObsTest, ConcurrentSpansFromContextRegionProduceValidChromeTrace) {
  obs::tracer().set_enabled(true);
  constexpr int kTasks = 64;
  // A 4-thread region records from the caller and three pool workers, so
  // the export must merge the tracer's per-thread buffers.
  const ComputeContext ctx(4);
  ctx.parallel_for(
      0, kTasks,
      [](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t t = lo; t < hi; ++t) {
          obs::ScopedSpan sp("task." + std::to_string(t % 4),
                             obs::cat::kCompute);
          obs::ScopedSpan inner("inner", obs::cat::kData);
        }
      },
      /*grain=*/1);
  obs::tracer().set_enabled(false);
  EXPECT_EQ(obs::tracer().span_count(), 2u * kTasks);

  std::ostringstream os;
  obs::tracer().write_chrome_trace(os);
  const auto doc = obs::json::parse(os.str());  // throws if malformed
  const auto& events = doc.at("traceEvents").as_array();
  std::size_t x_events = 0;
  for (const auto& e : events) {
    const auto& ph = e.at("ph").as_string();
    if (ph == "M") continue;  // process_name metadata
    EXPECT_EQ(ph, "X");
    EXPECT_FALSE(e.at("name").as_string().empty());
    EXPECT_GE(e.at("ts").as_number(), 0.0);
    EXPECT_GE(e.at("dur").as_number(), 0.0);
    e.at("pid").as_number();
    e.at("tid").as_number();
    ++x_events;
  }
  EXPECT_EQ(x_events, 2u * kTasks);
}

TEST_F(ObsTest, ChromeTraceEscapesSpecialCharacters) {
  obs::Span s;
  s.name = "weird \"name\"\nwith\\escapes";
  s.category = obs::cat::kCompute;
  s.dur_ns = 1;
  obs::tracer().record(s);
  std::ostringstream os;
  obs::tracer().write_chrome_trace(os);
  const auto doc = obs::json::parse(os.str());
  const auto& events = doc.at("traceEvents").as_array();
  bool found = false;
  for (const auto& e : events) {
    if (e.at("ph").as_string() != "X") continue;
    EXPECT_EQ(e.at("name").as_string(), s.name);
    found = true;
  }
  EXPECT_TRUE(found);
}

TEST_F(ObsTest, SimClusterRanksGetTheirOwnTraceLanes) {
  obs::tracer().set_enabled(true);
  constexpr int kWorld = 3;
  comm::SimCluster cluster(kWorld);
  cluster.run([](comm::Communicator& comm) {
    obs::ScopedSpan sp("work", obs::cat::kCompute);
    (void)comm;
  });
  obs::tracer().set_enabled(false);

  std::ostringstream os;
  obs::tracer().write_chrome_trace(os);
  const auto doc = obs::json::parse(os.str());
  std::vector<bool> lane_named(kWorld, false), lane_used(kWorld, false);
  for (const auto& e : doc.at("traceEvents").as_array()) {
    const int pid = static_cast<int>(e.at("pid").as_number());
    if (e.at("ph").as_string() == "M") {
      ASSERT_EQ(e.at("name").as_string(), "process_name");
      if (pid >= 0 && pid < kWorld) lane_named[pid] = true;
      continue;
    }
    if (e.at("name").as_string() == "work") {
      ASSERT_GE(pid, 0);
      ASSERT_LT(pid, kWorld);
      lane_used[pid] = true;
    }
  }
  for (int r = 0; r < kWorld; ++r) {
    EXPECT_TRUE(lane_named[r]) << "no process_name for rank " << r;
    EXPECT_TRUE(lane_used[r]) << "no span in rank " << r << "'s lane";
  }
}

// -- metrics registry -------------------------------------------------------

TEST_F(ObsTest, CountersAndGaugesAreCreateOnFirstUseAndStable) {
  auto& c = obs::metrics().counter("iters");
  c.add();
  c.add(9);
  EXPECT_EQ(obs::metrics().counter("iters").value(), 10);
  EXPECT_EQ(&obs::metrics().counter("iters"), &c);

  obs::metrics().gauge("lr").set(0.25);
  EXPECT_DOUBLE_EQ(obs::metrics().gauge("lr").value(), 0.25);
}

TEST_F(ObsTest, JsonlSnapshotParsesAndKeepsCountersIntegral) {
  obs::metrics().counter("msgs").add(7);
  obs::metrics().gauge("ratio").set(1.5);
  obs::metrics().gauge("bad").set(std::nan(""));
  std::ostringstream os;
  obs::metrics().write_jsonl_snapshot(os);
  const std::string line = os.str();
  ASSERT_FALSE(line.empty());
  EXPECT_EQ(line.back(), '\n');
  const auto doc = obs::json::parse(line.substr(0, line.size() - 1));
  EXPECT_DOUBLE_EQ(doc.at("msgs").as_number(), 7.0);
  EXPECT_DOUBLE_EQ(doc.at("ratio").as_number(), 1.5);
  EXPECT_TRUE(doc.at("bad").is_null());
  // Counter must be serialized without a decimal point.
  EXPECT_NE(line.find("\"msgs\":7"), std::string::npos);
  EXPECT_EQ(line.find("\"msgs\":7."), std::string::npos);
}

// -- per-collective traffic attribution -------------------------------------

TEST_F(ObsTest, TrafficMeterAttributesPerOp) {
  comm::TrafficMeter meter(2);
  meter.record_send(0, 100);  // defaults to p2p
  meter.record_send(1, 50, comm::WireOp::kAllreduceRing);
  meter.record_send(1, 50, comm::WireOp::kAllreduceRing);

  EXPECT_EQ(meter.op_stats(comm::WireOp::kP2P).bytes, 100);
  EXPECT_EQ(meter.op_stats(comm::WireOp::kAllreduceRing).messages, 2);
  EXPECT_EQ(meter.op_stats(comm::WireOp::kAllreduceRing).bytes, 100);
  EXPECT_EQ(meter.total().bytes, 200);

  const auto rows = meter.by_op();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].first, "p2p");
  EXPECT_EQ(rows[1].first, "allreduce-ring");

  meter.reset();
  EXPECT_TRUE(meter.by_op().empty());
}

TEST_F(ObsTest, ClusterAttributesCollectiveTraffic) {
  comm::SimCluster cluster(4);
  std::vector<float> data(64, 1.0f);
  cluster.run([&](comm::Communicator& comm) {
    std::vector<float> local = data;
    comm.allreduce_sum(local, comm::AllreduceAlgo::kRing);
    comm.broadcast(local, /*root=*/0);
  });
  const auto ring = cluster.op_traffic(comm::WireOp::kAllreduceRing);
  const auto bcast = cluster.op_traffic(comm::WireOp::kBroadcast);
  EXPECT_GT(ring.messages, 0);
  EXPECT_GT(bcast.messages, 0);
  // The tree allreduce's internal reduce/broadcast must NOT be claimed by
  // the inner collectives: everything belongs to the outermost op.
  cluster.reset_traffic();
  cluster.run([&](comm::Communicator& comm) {
    std::vector<float> local = data;
    comm.allreduce_sum(local, comm::AllreduceAlgo::kTree);
  });
  EXPECT_GT(cluster.op_traffic(comm::WireOp::kAllreduceTree).messages, 0);
  EXPECT_EQ(cluster.op_traffic(comm::WireOp::kReduce).messages, 0);
  EXPECT_EQ(cluster.op_traffic(comm::WireOp::kBroadcast).messages, 0);
}

// -- flight recorder --------------------------------------------------------

TEST(FlightRecorder, RingWraparoundKeepsTheLastEvents) {
  obs::FlightRecorder rec(16);
  for (int i = 0; i < 40; ++i) {
    rec.record(obs::FlightKind::kStep, obs::FlightOp::kNone, 0, 0, 0, 0, i);
  }
  EXPECT_EQ(rec.total_recorded(), 40);
  const auto events = rec.snapshot();
  ASSERT_EQ(events.size(), 16u);
  // The ring holds exactly the most recent capacity_per_lane events.
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].arg, static_cast<std::int64_t>(24 + i));
  }
  rec.clear();
  EXPECT_EQ(rec.total_recorded(), 0);
  EXPECT_TRUE(rec.snapshot().empty());
}

TEST(FlightRecorder, FieldsRoundTripThroughTheSlotPacking) {
  obs::FlightRecorder rec(16);
  rec.record(obs::FlightKind::kCollBegin, obs::FlightOp::kAllreduceTree, 2,
             (std::int64_t{1} << 44) + 17, 9, 123456, -3);
  const auto events = rec.snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, obs::FlightKind::kCollBegin);
  EXPECT_EQ(events[0].op, obs::FlightOp::kAllreduceTree);
  EXPECT_EQ(events[0].channel, 2);
  EXPECT_EQ(events[0].tag, (std::int64_t{1} << 44) + 17);
  EXPECT_EQ(events[0].generation, 9);
  EXPECT_EQ(events[0].bytes, 123456);
  EXPECT_EQ(events[0].arg, -3);
  EXPECT_EQ(events[0].rank, obs::thread_rank());
}

// Concurrent writers on distinct rank lanes racing a snapshot reader: the
// seqlock must never surface a torn slot (tier2-tsan re-runs this under
// ThreadSanitizer).
TEST(FlightRecorder, ConcurrentWritersAndSnapshotsStayExact) {
  obs::FlightRecorder rec(64);
  constexpr int kWriters = 4;
  constexpr int kEvents = 4000;
  std::atomic<bool> done{false};
  // minsgd-analyze: allow(thread-spawn): the FlightRecorder::record vs
  // snapshot seqlock race is exactly what this test must create.
  std::vector<std::thread> writers;
  for (int r = 0; r < kWriters; ++r) {
    writers.emplace_back([&rec, r] {
      obs::set_thread_rank(r);
      for (int i = 0; i < kEvents; ++i) {
        rec.record(obs::FlightKind::kStep, obs::FlightOp::kNone, r, 10 + r,
                   0, 0, i);
      }
      obs::set_thread_rank(-1);
    });
  }
  // minsgd-analyze: allow(thread-spawn): FlightRecorder::snapshot reader half
  // of the seqlock race.
  std::thread reader([&] {
    while (!done.load(std::memory_order_relaxed)) {
      for (const auto& e : rec.snapshot()) {
        // A torn slot would show mixed fields; every accepted event must be
        // internally consistent.
        ASSERT_EQ(e.kind, obs::FlightKind::kStep);
        ASSERT_EQ(e.channel, e.rank);
        ASSERT_EQ(e.tag, 10 + e.rank);
        ASSERT_GE(e.arg, 0);
        ASSERT_LT(e.arg, kEvents);
      }
    }
  });
  for (auto& t : writers) t.join();
  done.store(true, std::memory_order_relaxed);
  reader.join();
  EXPECT_EQ(rec.total_recorded(), kWriters * kEvents);
  const auto final_events = rec.snapshot();
  EXPECT_EQ(final_events.size(), kWriters * rec.capacity_per_lane());
}

TEST(FlightRecorder, MacroHonorsTheEnabledGate) {
  auto& rec = obs::flight();
  const bool was_enabled = rec.enabled();
  rec.clear();
  rec.set_enabled(false);
  MINSGD_FLIGHT(obs::FlightKind::kStep, obs::FlightOp::kNone, 0, 0, 0, 0, 1);
  EXPECT_EQ(rec.total_recorded(), 0);
  rec.set_enabled(true);
  MINSGD_FLIGHT(obs::FlightKind::kStep, obs::FlightOp::kNone, 0, 0, 0, 0, 2);
  EXPECT_EQ(rec.total_recorded(), 1);
  rec.clear();
  rec.set_enabled(was_enabled);
}

// -- postmortem dump + analyzer ---------------------------------------------

TEST(Postmortem, WriteReadRoundTrip) {
  obs::PostmortemInfo info;
  info.reason = "rank 1: \"boom\"\n\tat line 7";
  info.world = 4;
  info.rank_errors = {{1, "RankFailure: injected"}, {3, "ClusterAborted"}};
  std::vector<obs::FlightEvent> events(2);
  events[0].t_ns = 123;
  events[0].kind = obs::FlightKind::kCollBegin;
  events[0].op = obs::FlightOp::kAllreduceRing;
  events[0].rank = 2;
  events[0].channel = 1;
  events[0].tag = (std::int64_t{1} << 44) + 5;  // wire-tag magnitude
  events[0].generation = 3;
  events[0].bytes = 4096;
  events[0].arg = 7;
  events[1].t_ns = 456;
  events[1].kind = obs::FlightKind::kCrash;
  events[1].op = obs::FlightOp::kTimeout;
  events[1].rank = 1;

  std::ostringstream os;
  obs::write_postmortem(os, info, events);
  const obs::Postmortem pm = obs::read_postmortem(os.str());
  EXPECT_EQ(pm.info.reason, info.reason);
  EXPECT_EQ(pm.info.world, 4);
  ASSERT_EQ(pm.info.rank_errors.size(), 2u);
  EXPECT_EQ(pm.info.rank_errors[0].first, 1);
  EXPECT_EQ(pm.info.rank_errors[1].second, "ClusterAborted");
  ASSERT_EQ(pm.events.size(), 2u);
  EXPECT_EQ(pm.events[0].kind, obs::FlightKind::kCollBegin);
  EXPECT_EQ(pm.events[0].op, obs::FlightOp::kAllreduceRing);
  EXPECT_EQ(pm.events[0].tag, (std::int64_t{1} << 44) + 5);
  EXPECT_EQ(pm.events[0].generation, 3);
  EXPECT_EQ(pm.events[0].channel, 1);
  EXPECT_EQ(pm.events[1].kind, obs::FlightKind::kCrash);
  EXPECT_EQ(pm.events[1].op, obs::FlightOp::kTimeout);
}

TEST(Postmortem, RejectsUnknownSchemaAndEnumerators) {
  EXPECT_THROW(obs::read_postmortem("{\"schema\":\"nope\"}"),
               std::runtime_error);
  EXPECT_THROW(
      obs::read_postmortem(
          "{\"schema\":\"minsgd-postmortem-v1\",\"reason\":\"r\",\"world\":1,"
          "\"errors\":[],\"events\":[{\"t_ns\":0,\"kind\":\"weird\","
          "\"op\":\"none\",\"rank\":0,\"chan\":0,\"tag\":0,\"gen\":0,"
          "\"bytes\":0,\"arg\":0}]}"),
      std::runtime_error);
}

/// Synthetic 4-rank timeline exercising every analyzer feature: rank 2 is
/// late into both complete collectives, one group is missing crashed rank 3
/// and rank 0 runs a nested span inside it, a membership commit shrinks
/// generation 1 to world 2 for an overlapped-channel group, and one fault
/// marker is recorded.
TEST(Postmortem, AnalyzerJoinsRanksAndNamesTheStraggler) {
  using K = obs::FlightKind;
  using O = obs::FlightOp;
  std::vector<obs::FlightEvent> ev;
  auto add = [&ev](std::int64_t t, K kind, O op, int rank, int chan,
                   std::int64_t tag, std::int64_t gen, std::int64_t arg) {
    obs::FlightEvent e;
    e.t_ns = t;
    e.kind = kind;
    e.op = op;
    e.rank = rank;
    e.channel = chan;
    e.tag = tag;
    e.generation = gen;
    e.arg = arg;
    ev.push_back(e);
  };
  const std::int64_t ms = 1'000'000, us = 1'000;
  // Tag 100: all 4 ranks, rank 2 arrives 2 ms after the pack.
  for (int r = 0; r < 4; ++r) {
    add(1 * ms + r * 10 * us + (r == 2 ? 2 * ms : 0), K::kCollBegin,
        O::kAllreduceRing, r, 0, 100, 0, 0);
    add(4 * ms + r * 10 * us, K::kCollEnd, O::kAllreduceRing, r, 0, 100, 0, 0);
  }
  // Tag 200: rank 2 late again, so attribution must accumulate.
  for (int r = 0; r < 4; ++r) {
    add(5 * ms + r * 10 * us + (r == 2 ? 3 * ms : 0), K::kCollBegin,
        O::kBarrier, r, 0, 200, 0, 0);
    add(9 * ms + r * 10 * us, K::kCollEnd, O::kBarrier, r, 0, 200, 0, 0);
  }
  // Tag 300: rank 3 crashed before it, so only 3 ranks begin (unmatched).
  for (int r = 0; r < 3; ++r) {
    add(10 * ms + r * 10 * us, K::kCollBegin, O::kBroadcast, r, 0, 300, 0, 0);
  }
  add(10 * ms + 500 * us, K::kCrash, O::kCrashed, 3, 0, 0, 0, 3);
  // Tag 301 nests inside rank 0's tag-300 window: union, not sum.
  add(10 * ms + 20 * us, K::kCollBegin, O::kReduce, 0, 0, 301, 0, 0);
  add(10 * ms + 400 * us, K::kCollEnd, O::kReduce, 0, 0, 301, 0, 0);
  for (int r = 0; r < 3; ++r) {
    add(11 * ms + r * 10 * us, K::kCollEnd, O::kBroadcast, r, 0, 300, 0, 0);
  }
  // Channel-1 (overlapped) group on ranks 0-1 in generation 1, after a
  // commit that shrank the world to 2.
  add(12 * ms, K::kMembership, O::kCommit, 0, 2, 0, 1, 2);
  for (int r = 0; r < 2; ++r) {
    add(13 * ms + r * 10 * us, K::kCollBegin, O::kAllreduceRing, r, 1, 400, 1,
        0);
    add(14 * ms + r * 10 * us, K::kCollEnd, O::kAllreduceRing, r, 1, 400, 1,
        0);
  }
  for (int r = 0; r < 4; ++r) {
    add(15 * ms, K::kStep, O::kNone, r, 0, 0, 0, 1);
  }
  add(2 * ms, K::kFault, O::kDelay, 1, 0, 0, 0, 2);

  const obs::FlightAnalysis a = obs::analyze_flight(ev, 4);
  EXPECT_EQ(a.world, 4);
  // Four main-channel groups plus one overlapped; tags 300 (3/4 ranks) and
  // 301 (1/4) are unmatched.
  EXPECT_EQ(a.groups, 5);
  EXPECT_EQ(a.matched_groups, 3);
  EXPECT_NEAR(a.match_rate, 0.6, 1e-9);
  // Rank 2 is charged its margin over the second-last arrival: ~2 ms (tag
  // 100) + ~3 ms (tag 200), and arrived last at 100, 200 and (by 20 us) 300.
  EXPECT_EQ(a.straggler_rank, 2);
  EXPECT_GT(a.straggler_lag_ns, 4'900 * us);
  EXPECT_LT(a.straggler_lag_ns, 5'100 * us);
  const auto rank2 = std::find_if(
      a.ranks.begin(), a.ranks.end(),
      [](const obs::RankAttribution& ra) { return ra.rank == 2; });
  ASSERT_NE(rank2, a.ranks.end());
  EXPECT_EQ(rank2->arrived_last, 3);
  EXPECT_EQ(a.fault_events, 1);
  EXPECT_EQ(a.crash_events, 1);
  ASSERT_EQ(a.reconfigs.size(), 1u);
  EXPECT_EQ(a.reconfigs[0].t_ns, 12 * ms);
  EXPECT_EQ(a.reconfigs[0].generation, 1);
  EXPECT_EQ(a.reconfigs[0].world, 2);
  // The gen-1 group takes its expected world from the commit: 2/2 matched.
  int gen1_groups = 0;
  for (const auto& g : a.worst) {
    if (g.generation != 1) continue;
    ++gen1_groups;
    EXPECT_EQ(g.ranks_expected, 2);
    EXPECT_EQ(g.ranks_seen, 2);
  }
  EXPECT_EQ(gen1_groups, 1);
  // Biggest skew first: tag 200 (3 ms) ahead of tag 100 (2 ms).
  ASSERT_GE(a.worst.size(), 2u);
  EXPECT_EQ(a.worst[0].tag, 200);
  EXPECT_EQ(a.worst[1].tag, 100);
  // Rank 0's exposed comm is the union of tags 100 (3 ms), 200 (4 ms) and
  // 300 (1 ms, with 301 nested inside it) = 8 ms; its channel-1 time is
  // counted apart as 1 ms overlapped.
  bool saw_rank0 = false;
  for (const auto& row : a.step_comm) {
    if (row.rank != 0) continue;
    saw_rank0 = true;
    EXPECT_EQ(row.steps, 1);
    EXPECT_NEAR(static_cast<double>(row.exposed_ns), 8.0 * ms, 200.0 * us);
    EXPECT_NEAR(static_cast<double>(row.overlapped_ns), 1.0 * ms, 200.0 * us);
  }
  EXPECT_TRUE(saw_rank0);

  std::ostringstream report;
  obs::write_analysis(report, a);
  EXPECT_NE(report.str().find("straggler: rank 2"), std::string::npos);
  EXPECT_NE(report.str().find("membership timeline"), std::string::npos);
  EXPECT_NE(report.str().find("fault events: 1, crash events: 1"),
            std::string::npos);
}

TEST(Postmortem, DumpWritesTheConfiguredPath) {
  testing::ScopedPostmortemPath dump("pm_dump_roundtrip.json");
  MINSGD_FLIGHT(obs::FlightKind::kStep, obs::FlightOp::kNone, 0, 0, 0, 0, 42);
  obs::PostmortemInfo info;
  info.reason = "unit-test dump";
  info.world = 1;
  EXPECT_TRUE(obs::dump_postmortem(info));
  const obs::Postmortem pm = obs::read_postmortem_file(dump.path);
  EXPECT_EQ(pm.info.reason, "unit-test dump");
  ASSERT_EQ(pm.events.size(), 1u);
  EXPECT_EQ(pm.events[0].arg, 42);
}

// -- tracer buffers across thread exit --------------------------------------

TEST_F(ObsTest, SpansOfExitedThreadsSurviveUntilExportThenPrune) {
  obs::tracer().set_enabled(true);
  const std::size_t base = obs::tracer().thread_buffer_count();
  // minsgd-analyze: allow(thread-spawn): the regression under test is a
  // ScopedSpan recorded by a thread that exits before export.
  std::thread worker([] {
    obs::ScopedSpan sp("short.lived.worker", obs::cat::kCompute);
  });
  worker.join();
  // The buffer outlives its thread: the span must still be exportable...
  EXPECT_EQ(obs::tracer().thread_buffer_count(), base + 1);
  const auto spans = obs::tracer().snapshot();
  bool found = false;
  for (const auto& s : spans) found |= s.name == "short.lived.worker";
  EXPECT_TRUE(found);
  // ...and clear() prunes the detached buffer so thread churn cannot grow
  // the registry without bound.
  obs::tracer().clear();
  EXPECT_EQ(obs::tracer().thread_buffer_count(), base);
}

}  // namespace
}  // namespace minsgd

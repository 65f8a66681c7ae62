// Reading a postmortem: the flight recorder as a distributed black box.
//
//   $ ./postmortem                 # stage a crash, dump, attribute
//   $ ./postmortem <dump.json>     # analyze an existing dump offline
//
// Every rank carries an always-on, fixed-capacity flight recorder
// (obs/flight.hpp) that logs compact collective begin/arrive/end events as
// it trains. When a run dies — injected crash, CommTimeout, MINSGD_CHECK
// failure — SimCluster::run dumps the last events of *every* rank into one
// merged postmortem.json before rethrowing. This example stages exactly
// that scenario and then plays investigator:
//
//   1. world=4 cluster runs allreduce steps; rank 2 is a compute-side
//      straggler (it sleeps 2 ms before every outermost collective, so it
//      always *arrives* late), and rank 1 is scheduled to crash mid-run;
//   2. the crash unwinds all four ranks; the driver catches the aggregated
//      failure and finds postmortem_demo.json on disk;
//   3. the analyzer joins the events across ranks by (channel, tag,
//      generation, op): groups where all 4 ranks checked in are "matched",
//      the missing ranks of unmatched tail groups point at the crash, and
//      the per-group last-arrival margins accumulate into straggler blame —
//      naming rank 2 without any per-rank timing instrumentation.
//
// Given a path, the example skips the staging and prints the same report
// for that dump (any postmortem.json a crashed run left behind).
#include <cstdio>
#include <exception>
#include <iostream>
#include <vector>

#include "comm/cluster.hpp"
#include "comm/fault.hpp"
#include "obs/flight.hpp"
#include "obs/postmortem.hpp"

using namespace minsgd;

namespace {

// Reads a dump and prints its header and the cross-rank analysis.
obs::FlightAnalysis report(const char* dump) {
  const obs::Postmortem pm = obs::read_postmortem_file(dump);
  std::printf("%s: %zu events from the final moments, reason:\n  %s\n",
              dump, pm.events.size(), pm.info.reason.c_str());
  for (const auto& [rank, what] : pm.info.rank_errors) {
    std::printf("  rank %d: %s\n", rank, what.c_str());
  }
  std::printf("\n");
  const obs::FlightAnalysis a = obs::analyze_flight(pm.events, pm.info.world);
  obs::write_analysis(std::cout, a);
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1) {
    try {
      report(argv[1]);
      return 0;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "postmortem: %s\n", e.what());
      return 1;
    }
  }
  const int world = 4;
  const char* dump = "postmortem_demo.json";
  obs::set_postmortem_path(dump);
  obs::flight().clear();

  // Rank 2 straggles at every collective entry; rank 1 crashes after its
  // 60th send — a few training steps in.
  comm::FaultPlan plan;
  plan.straggler_rank = 2;
  plan.straggler_stall = std::chrono::milliseconds(2);
  plan.crash_rank = 1;
  plan.crash_at_send = 60;

  comm::SimCluster cluster(world);
  cluster.set_fault_injector(std::make_shared<comm::FaultInjector>(plan, world));

  std::printf("running world=%d with a rank-2 straggler and a rank-1 crash "
              "bomb...\n", world);
  try {
    cluster.run([](comm::Communicator& comm) {
      std::vector<float> grad(256, 1.0f);
      for (int it = 0;; ++it) {
        comm.allreduce_sum(grad, comm::AllreduceAlgo::kRing);
        comm.barrier();
        MINSGD_FLIGHT(obs::FlightKind::kStep, obs::FlightOp::kNone, 0, 0, 0,
                      0, it);
      }
    });
    std::printf("unexpected: the run survived\n");
    return 1;
  } catch (const std::exception& e) {
    std::printf("\nthe run died, as staged:\n  %s\n", e.what());
  }

  // The black box is already on disk — SimCluster::run wrote it while the
  // exception was in flight. Read it back and attribute.
  std::printf("\n");
  const obs::FlightAnalysis a = report(dump);

  std::printf("\nverdict: %s\n",
              a.straggler_rank == 2
                  ? "the analyzer blames rank 2 — the injected straggler"
                  : "straggler attribution missed the injected rank");
  std::printf("read it again offline: postmortem %s\n", dump);
  return a.straggler_rank == 2 && a.match_rate > 0.5 ? 0 : 1;
}

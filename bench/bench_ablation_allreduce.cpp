// Ablation: allreduce algorithm choice.
//
// The same data-parallel training step with each collective, measuring
// (a) correctness-invariant accuracy, (b) messages and bytes on the wire,
// and (c) the alpha-beta model's predicted cost of each algorithm on the
// paper's networks at scale — why production systems pick ring for large
// gradients and trees for small ones. A last section times the ring's
// transport itself, eager against the shipped eager/rendezvous choice,
// over chunk sizes from 4 KiB to 32 MiB.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <vector>

#include "bench_common.hpp"
#include "comm/cluster.hpp"
#include "perf/cost_model.hpp"
#include "perf/specs.hpp"

using namespace minsgd;

namespace {

/// Median microseconds per ring allreduce of `n` floats per rank on a
/// fresh `world`-rank cluster, timed on rank 0 from a barrier to the end of
/// the call. `eager` installs a fault injector that injects nothing, which
/// keeps every ring step on the eager path at any chunk size.
double ring_us_per_call(int world, std::size_t n, bool eager, int reps) {
  comm::SimCluster cluster(
      comm::ClusterOptions{world, static_cast<std::size_t>(world)});
  if (eager) {
    cluster.set_fault_injector(
        std::make_shared<comm::FaultInjector>(comm::FaultPlan{}, world));
  }
  std::vector<double> us;
  cluster.run([&](comm::Communicator& c) {
    std::vector<float> buf(n, 1.0f);
    c.allreduce_sum(buf, comm::AllreduceAlgo::kRing);  // touch every page
    for (int i = 0; i < reps; ++i) {
      std::fill(buf.begin(), buf.end(), 1.0f);
      c.barrier();
      const auto t0 = std::chrono::steady_clock::now();
      c.allreduce_sum(buf, comm::AllreduceAlgo::kRing);
      const std::chrono::duration<double, std::micro> dt =
          std::chrono::steady_clock::now() - t0;
      if (c.rank() == 0) us.push_back(dt.count());
    }
  });
  std::nth_element(us.begin(), us.begin() + us.size() / 2, us.end());
  return us[us.size() / 2];
}

}  // namespace

int main() {
  bench::banner("Ablation — allreduce algorithm",
                "semantics identical, wire traffic very different");

  auto proxy = core::bench_proxy();
  data::SyntheticImageNet ds(proxy.dataset);

  core::CsvWriter csv(bench::csv_path("ablation_allreduce"),
                      {"algo", "acc", "messages", "bytes"});

  bench::section("one epoch of 8-way data-parallel training per algorithm");
  std::printf("%-24s %10s %10s %14s\n", "algorithm", "acc", "messages",
              "bytes");
  for (const auto algo :
       {comm::AllreduceAlgo::kStar, comm::AllreduceAlgo::kTree,
        comm::AllreduceAlgo::kRing, comm::AllreduceAlgo::kRecursiveHalving}) {
    auto rc = proxy.recipe(proxy.base_batch * 8, core::LrRule::kLars);
    rc.epochs = 2;
    rc.warmup_epochs = 0.5;
    const auto res =
        core::run_recipe_distributed(proxy.alexnet_factory(), rc, ds, 8, algo);
    std::printf("%-24s %9.1f%% %10lld %14lld\n", comm::to_string(algo),
                100 * res.result.best_test_acc,
                static_cast<long long>(res.traffic.messages),
                static_cast<long long>(res.traffic.bytes));
    csv.row(comm::to_string(algo), res.result.best_test_acc,
            res.traffic.messages, res.traffic.bytes);
  }
  std::printf("(accuracy identical across algorithms: the collective changes\n"
              " the wire pattern, not the mathematics)\n");

  bench::section("modeled time for a 25M-param gradient, QDR IB");
  const auto net = perf::intel_qdr_ib();
  const std::int64_t bytes = 25'000'000 * 4;
  std::printf("%8s %14s %14s\n", "nodes", "log-tree", "ring");
  for (int nodes : {8, 64, 512, 2048}) {
    std::printf("%8d %13.4fs %13.4fs\n", nodes,
                perf::allreduce_time_logtree(net, nodes, bytes),
                perf::allreduce_time_ring(net, nodes, bytes));
  }
  std::printf("\nRing's per-node traffic is batch-size- and node-count-\n"
              "independent (2|W| bytes), which is what lets the 2048-node\n"
              "runs keep t_comm under t_comp (Table 9).\n");

  bench::section("ring transport: eager vs shipped, per chunk size");
  std::printf("chunks of %zu KiB and more go by rendezvous (the peer reads\n"
              "the sender's buffer in place); GB/s = per-rank wire bytes\n"
              "2(p-1)/p * 4n over the median call time\n",
              comm::Communicator::kRendezvousBytes >> 10);
  core::CsvWriter tcsv(bench::csv_path("ablation_allreduce_transport"),
                       {"world", "chunk_bytes", "shipped_protocol", "eager_us",
                        "shipped_us", "eager_gbs", "shipped_gbs"});
  std::printf("%6s %10s %11s %11s %11s %11s %12s\n", "world", "chunk",
              "shipped", "eager us", "shipped us", "eager GB/s",
              "shipped GB/s");
  for (const int world : {2, 4}) {
    for (const std::size_t chunk_kib :
         {4, 16, 64, 128, 256, 1024, 4096, 16384, 32768}) {
      const std::size_t chunk_bytes = chunk_kib << 10;
      const std::size_t n = static_cast<std::size_t>(world) * chunk_bytes / 4;
      const int reps = static_cast<int>(
          std::clamp<std::size_t>((std::size_t{256} << 20) / (n * 4), 5, 400));
      const double eager_us = ring_us_per_call(world, n, true, reps);
      const double shipped_us = ring_us_per_call(world, n, false, reps);
      const double wire = 2.0 * (world - 1) / world * 4.0 * n;
      const char* protocol =
          chunk_bytes >= comm::Communicator::kRendezvousBytes ? "rendezvous"
                                                               : "eager";
      std::printf("%6d %6zu KiB %11s %11.1f %11.1f %11.2f %12.2f\n", world,
                  chunk_kib, protocol, eager_us, shipped_us,
                  wire / eager_us / 1e3, wire / shipped_us / 1e3);
      tcsv.row(world, static_cast<std::int64_t>(chunk_bytes), protocol,
               eager_us, shipped_us, wire / eager_us / 1e3,
               wire / shipped_us / 1e3);
    }
  }
  return 0;
}

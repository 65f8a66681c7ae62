// Elastic training: ranks join and leave a live run without a restart.
//
//   $ ./elastic_training
//
// At the paper's scale (1024-2048 KNL nodes) a fixed world is a fiction:
// nodes fail, and batch-scheduled clusters grow and shrink allocations
// mid-job. The elastic trainer (train/elastic.hpp) keeps the synchronous
// run alive across membership changes: survivors agree on a new view
// (comm/membership.hpp), re-form the communicator under a fresh generation
// tag, re-shard the data, rescale the LR per the linear scaling rule, and
// admit joiners by broadcasting the full training state.
//
// Two scenarios:
//   1. scheduled   - start 3-wide, rank 2 leaves a third of the way in,
//                    rank 3 (a standby slot) joins two thirds in;
//   2. crash       - the fault injector kills rank 2 mid-run; survivors
//                    time out, reconfigure to a 2-wide view, and finish.
#include <cstdio>
#include <memory>

#include "comm/fault.hpp"
#include "comm/membership.hpp"
#include "core/proxy.hpp"
#include "optim/schedule.hpp"
#include "optim/sgd.hpp"
#include "train/elastic.hpp"

using namespace minsgd;

namespace {

void print_reconfigs(const train::ElasticResult& res) {
  std::printf("  %d reconfiguration(s):\n", res.reconfigurations);
  for (const auto& rec : res.reconfigs) {
    std::printf("    gen %lld at iter %lld: world -> %d  (pause %.2f ms%s)\n",
                static_cast<long long>(rec.generation),
                static_cast<long long>(rec.at_iter), rec.world,
                static_cast<double>(rec.pause_ns) / 1e6,
                rec.fault_triggered ? ", fault-triggered" : "");
  }
}

}  // namespace

int main() {
  auto proxy = core::micro_proxy();
  data::SyntheticImageNet ds(proxy.dataset);

  optim::ConstantLr lr(proxy.base_lr);
  auto opt_factory = [] {
    return std::make_unique<optim::Sgd>(
        optim::SgdConfig{.momentum = 0.9, .weight_decay = 0.0005});
  };

  train::ElasticOptions eo;
  eo.train.verbose = true;
  eo.train.eval_every = 1;
  eo.train.detect_divergence = false;
  eo.local_batch = 16;
  eo.initial_world = 3;
  eo.max_world = 4;
  eo.total_iterations = 36;

  std::printf("=== scenario 1: scheduled shrink + grow ===\n");
  std::printf("start 3-wide; rank 2 leaves at iter 12, rank 3 joins at "
              "iter 24\n(the joiner receives the full training state over "
              "the new generation's channel before its first step)\n\n");
  eo.events = {
      {12, comm::ElasticEventKind::kLeave, 2},
      {24, comm::ElasticEventKind::kJoin, 3},
  };
  const auto scheduled =
      train::train_sync_elastic(proxy.alexnet_factory(), opt_factory, lr, ds,
                                eo);
  std::printf("\n  completed %lld iterations, best test acc %.1f%%\n",
              static_cast<long long>(scheduled.iterations),
              100.0 * scheduled.result.best_test_acc);
  print_reconfigs(scheduled);

  std::printf("\n=== scenario 2: crash-triggered shrink ===\n");
  std::printf("rank 2's 40th send kills it; survivors hit a recv timeout, "
              "rendezvous,\nand continue 2-wide — no checkpoint reload, no "
              "full-cluster restart\n\n");
  eo.events.clear();
  eo.recv_timeout = std::chrono::milliseconds(500);
  comm::FaultPlan plan;
  plan.crash_rank = 2;
  plan.crash_at_send = 40;
  const auto crashed = train::train_sync_elastic(
      proxy.alexnet_factory(), opt_factory, lr, ds, eo,
      std::make_shared<comm::FaultInjector>(plan, eo.max_world));
  std::printf("\n  completed %lld iterations, crashes %lld, best test acc "
              "%.1f%%\n",
              static_cast<long long>(crashed.iterations),
              static_cast<long long>(crashed.faults.crashes),
              100.0 * crashed.result.best_test_acc);
  print_reconfigs(crashed);

  std::printf("\nThe LR follows the linear scaling rule across every resize "
              "(lr ~ live\nglobal batch), so the schedule a window reports "
              "is the one a fixed-world\nrun of that size would use — see "
              "DESIGN.md section 12 for the protocol.\n");
  return 0;
}

// Elastic membership: reconfiguration pause vs steady-state throughput.
//
// The checkpoint/restart driver (train/fault_tolerant.hpp) pays a full
// teardown + reload to change the world; the elastic trainer
// (train/elastic.hpp) instead pauses at an iteration boundary, re-forms the
// communicator over the survivors, rescales LR/global batch, and keeps
// going. This bench quantifies that trade on the simulated cluster:
//
//   * steady-state img/s at fixed worlds 2..4 (the envelope an elastic run
//     moves within), and
//   * a shrink+grow elastic run, reporting each reconfiguration's pause and
//     the throughput actually delivered (examples are counted per
//     membership segment, since the global batch tracks the live world).
#include <chrono>
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "comm/membership.hpp"
#include "core/proxy.hpp"
#include "optim/schedule.hpp"
#include "optim/sgd.hpp"
#include "train/elastic.hpp"

using namespace minsgd;
using Clock = std::chrono::steady_clock;

namespace {

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Examples processed by an elastic run: the global batch is
/// local_batch x live world, so integrate world over the membership
/// segments the reconfiguration records delimit.
double elastic_examples(const train::ElasticResult& res, int initial_world,
                        std::int64_t local_batch) {
  double examples = 0.0;
  std::int64_t prev_iter = 0;
  int world = initial_world;
  for (const auto& rec : res.reconfigs) {
    examples += static_cast<double>(world) *
                static_cast<double>(local_batch) *
                static_cast<double>(rec.at_iter - prev_iter);
    prev_iter = rec.at_iter;
    world = rec.world;
  }
  examples += static_cast<double>(world) * static_cast<double>(local_batch) *
              static_cast<double>(res.iterations - prev_iter);
  return examples;
}

}  // namespace

int main() {
  bench::banner("Elastic membership — resize pause vs throughput",
                "resizing a live run costs a bounded pause at an iteration "
                "boundary, not a full-cluster restart");

  auto proxy = core::micro_proxy();
  data::SyntheticImageNet ds(proxy.dataset);

  const std::int64_t local_batch = 16;
  const std::int64_t total_iters = 48;
  optim::ConstantLr lr(proxy.base_lr);
  auto opt_factory = [] {
    return std::make_unique<optim::Sgd>(
        optim::SgdConfig{.momentum = 0.9, .weight_decay = 0.0005});
  };

  auto base_options = [&] {
    train::ElasticOptions eo;
    eo.train.overlap_comm = true;
    eo.train.bucket_bytes = 256 * 1024;
    eo.train.eval_every = 1 << 20;  // throughput bench: skip eval passes
    eo.train.detect_divergence = false;
    eo.local_batch = local_batch;
    eo.max_world = 4;
    eo.total_iterations = total_iters;
    eo.base_global_batch = local_batch * 4;
    return eo;
  };

  core::CsvWriter csv(bench::csv_path("elastic"),
                      {"mode", "world", "iterations", "reconfigs", "img_per_s",
                       "total_pause_ms", "max_pause_ms"});

  bench::section("steady state: fixed worlds (the elastic envelope)");
  std::printf("%-12s %6s %8s %10s\n", "mode", "world", "iters", "img/s");
  double fixed4_img_s = 0.0;
  for (int world = 2; world <= 4; ++world) {
    auto eo = base_options();
    eo.initial_world = world;
    const auto t0 = Clock::now();
    const auto res =
        train::train_sync_elastic(proxy.alexnet_factory(), opt_factory, lr,
                                  ds, eo);
    const double secs = seconds_since(t0);
    const double img_s = static_cast<double>(world * local_batch) *
                         static_cast<double>(res.iterations) / secs;
    if (world == 4) fixed4_img_s = img_s;
    std::printf("%-12s %6d %8lld %10.0f\n", "fixed", world,
                static_cast<long long>(res.iterations), img_s);
    csv.row("fixed", world, res.iterations, res.reconfigurations, img_s, 0.0,
            0.0);
  }

  bench::section("elastic: start 4-wide, shrink to 3, grow back to 4");
  auto eo = base_options();
  eo.initial_world = 4;
  eo.events = {
      {total_iters / 3, comm::ElasticEventKind::kLeave, 3},
      {2 * total_iters / 3, comm::ElasticEventKind::kJoin, 3},
  };
  const auto t0 = Clock::now();
  const auto res = train::train_sync_elastic(proxy.alexnet_factory(),
                                             opt_factory, lr, ds, eo);
  const double secs = seconds_since(t0);
  const double img_s = elastic_examples(res, eo.initial_world, local_batch) /
                       secs;

  double total_pause_ms = 0.0, max_pause_ms = 0.0;
  std::printf("%-4s %6s %6s %10s %6s\n", "gen", "iter", "world",
              "pause_ms", "fault");
  for (const auto& rec : res.reconfigs) {
    const double pause_ms = static_cast<double>(rec.pause_ns) / 1e6;
    total_pause_ms += pause_ms;
    if (pause_ms > max_pause_ms) max_pause_ms = pause_ms;
    std::printf("%-4lld %6lld %6d %10.2f %6s\n",
                static_cast<long long>(rec.generation),
                static_cast<long long>(rec.at_iter), rec.world, pause_ms,
                rec.fault_triggered ? "yes" : "no");
  }
  std::printf("\nelastic: %lld iters, %d reconfigs, %.0f img/s "
              "(%.0f%% of the fixed 4-wide rate), pauses total %.2f ms "
              "(max %.2f ms)\n",
              static_cast<long long>(res.iterations), res.reconfigurations,
              img_s, fixed4_img_s > 0 ? 100.0 * img_s / fixed4_img_s : 0.0,
              total_pause_ms, max_pause_ms);
  csv.row("elastic", eo.initial_world, res.iterations, res.reconfigurations,
          img_s, total_pause_ms, max_pause_ms);

  std::printf("\nEach resize costs one rendezvous + communicator re-form at\n"
              "an iteration boundary; between resizes the run moves at the\n"
              "fixed-world rate of its current size. A checkpoint/restart\n"
              "driver would instead pay teardown + reload + warm re-entry\n"
              "for every size change (see bench_table8/9 for restart cost).\n");
  return 0;
}

// End-to-end trace smoke test: run a tiny instrumented distributed training
// job, export trace.json, and verify the file is valid Chrome trace_event
// JSON containing the spans the paper's time-breakdown argument needs
// (forward, backward, allreduce) in per-rank lanes.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "core/proxy.hpp"
#include "obs/json.hpp"
#include "obs/trace.hpp"
#include "optim/lars.hpp"
#include "optim/schedule.hpp"
#include "train/trainer.hpp"

namespace minsgd {
namespace {

std::string read_all(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

TEST(TraceSmoke, InstrumentedTrainingProducesLoadableTrace) {
  const auto proxy = core::micro_proxy();
  data::SyntheticImageNet dataset(proxy.dataset);
  constexpr int kWorld = 2;

  train::TrainOptions topt;
  topt.global_batch = proxy.base_batch * kWorld;
  topt.epochs = 1;
  topt.eval_every = 1;
  topt.init_seed = 3;
  const optim::ConstantLr schedule(proxy.base_lr);
  const auto opt_factory = [&] {
    return std::unique_ptr<optim::Optimizer>(
        new optim::Lars({.trust_coeff = proxy.lars_trust}));
  };

  obs::tracer().clear();
  obs::tracer().set_enabled(true);
  const auto res = train::train_sync_data_parallel(
      proxy.alexnet_factory(), opt_factory, schedule, dataset, topt, kWorld,
      comm::AllreduceAlgo::kRing);
  obs::tracer().set_enabled(false);
  ASSERT_FALSE(res.result.diverged);
  ASSERT_GT(res.iterations, 0);
  ASSERT_GT(obs::tracer().span_count(), 0u);

  const std::string path = ::testing::TempDir() + "/smoke_trace.json";
  obs::tracer().write_chrome_trace(path);
  const auto doc = obs::json::parse(read_all(path));  // throws if malformed
  std::remove(path.c_str());

  bool saw_forward = false, saw_backward = false, saw_allreduce = false;
  bool saw_phase = false;
  std::vector<bool> rank_lane(kWorld, false);
  for (const auto& e : doc.at("traceEvents").as_array()) {
    if (e.at("ph").as_string() != "X") continue;
    const auto& name = e.at("name").as_string();
    const int pid = static_cast<int>(e.at("pid").as_number());
    if (pid >= 0 && pid < kWorld) rank_lane[pid] = true;
    if (name.rfind("forward.", 0) == 0) saw_forward = true;
    if (name.rfind("backward.", 0) == 0) saw_backward = true;
    if (name.rfind("allreduce.", 0) == 0) {
      saw_allreduce = true;
      // Comm spans must carry their payload size.
      EXPECT_GT(e.at("args").at("bytes").as_number(), 0.0);
    }
    if (name == "phase.forward" || name == "phase.allreduce") saw_phase = true;
  }
  EXPECT_TRUE(saw_forward);
  EXPECT_TRUE(saw_backward);
  EXPECT_TRUE(saw_allreduce);
  EXPECT_TRUE(saw_phase);
  for (int r = 0; r < kWorld; ++r) {
    EXPECT_TRUE(rank_lane[r]) << "rank " << r << " recorded no spans";
  }

  // The per-phase summary that feeds the scaling-ratio report is present.
  const auto stats = obs::tracer().summary();
  bool phase_allreduce = false;
  for (const auto& st : stats) {
    if (st.name == "phase.allreduce") {
      phase_allreduce = true;
      EXPECT_EQ(st.count, res.iterations * kWorld);
      EXPECT_GT(st.total_ns, 0);
    }
  }
  EXPECT_TRUE(phase_allreduce);
  obs::tracer().clear();
}

TEST(TraceSmoke, DisabledTrainingRecordsNoSpans) {
  const auto proxy = core::micro_proxy();
  data::SyntheticImageNet dataset(proxy.dataset);

  train::TrainOptions topt;
  topt.global_batch = proxy.base_batch;
  topt.epochs = 1;
  topt.init_seed = 3;
  const optim::ConstantLr schedule(proxy.base_lr);

  obs::tracer().clear();
  ASSERT_FALSE(obs::tracer().enabled());
  auto net = proxy.alexnet_factory()();  // train_single inits from the seed
  optim::Lars opt({.trust_coeff = proxy.lars_trust});
  const auto res = train::train_single(*net, opt, schedule, dataset, topt);
  ASSERT_GT(res.iterations_run, 0);
  EXPECT_EQ(obs::tracer().span_count(), 0u);
}

}  // namespace
}  // namespace minsgd

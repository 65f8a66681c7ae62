// perfbench: runs one trial of one benchmark workload and prints what it
// measured as a single JSON line. run.py starts one process per trial (so
// each trial's peak RSS is its own), repeats trials, checks the outputs and
// aggregates the metrics.
//
//   perfbench --workload <name> --seed <n> --mode <train|trace> [--tiny]
//
// Modes:
//   train  the fixed-length workload, untraced: set-up time, per-step times,
//          wall time, final-weights hash and accuracy.
//   trace  the same run with every top-level layer wrapped in a TimedLayer
//          (probe.hpp), followed by the outside-in probes: data loading,
//          evaluation, collective transfer and the single-thread sgemm peak.
// --tiny shrinks every workload for the self-test.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "comm/cluster.hpp"
#include "core/proxy.hpp"
#include "core/recipe.hpp"
#include "data/loader.hpp"
#include "data/synthetic.hpp"
#include "nn/models.hpp"
#include "obs/metrics.hpp"
#include "probe.hpp"
#include "tensor/context.hpp"
#include "tensor/gemm.hpp"
#include "tensor/kernels/dispatch.hpp"
#include "tensor/rng.hpp"
#include "train/metrics.hpp"
#include "train/trainer.hpp"

namespace perfbench {
namespace {

using namespace minsgd;

using ModelFactory = std::function<std::unique_ptr<nn::Network>()>;

struct Workload {
  data::SynthConfig data;
  ModelFactory model;
  core::RecipeConfig recipe;
  int world = 0;  // 0: train_single
  std::size_t threads = 4;
  bool overlap = false;
  std::int64_t bucket_bytes = 0;
};

/// The benchmark's workloads. The seed sets the dataset and the init seed.
Workload make_workload(const std::string& name, std::uint64_t seed,
                       bool tiny) {
  Workload w;
  if (name == "resnet50_dp4") {
    // Full-size ResNet-50 at 224^2 (16 synthetic classes keep the class
    // prototypes small), 4 ranks x 1 thread, one 94 MB ring allreduce.
    const std::int64_t res = tiny ? 64 : 224;
    const std::int64_t steps = tiny ? 3 : 4;
    w.data.classes = 16;
    w.data.resolution = res;
    w.data.train_size = 8 * steps;
    w.data.test_size = 4;
    w.model = [] { return nn::resnet(50, 16); };
    w.recipe.base_batch = 8;
    w.recipe.global_batch = 8;
    w.recipe.epochs = 1;
    w.recipe.rule = core::LrRule::kLars;
    w.world = 4;
    w.threads = 4;
  } else if (name == "alexnet_proxy_dp2_overlap") {
    // BN AlexNet proxy (1.27 M params, heavy FC head), 2 ranks x 1 thread,
    // overlapped 64 KiB bucket allreduces on the async comm workers.
    const std::int64_t width = tiny ? 16 : 64;
    const std::int64_t steps = tiny ? 4 : 48;
    w.data.classes = 16;
    w.data.resolution = 32;
    w.data.train_size = 8 * steps;
    w.data.test_size = 64;
    w.model = [width] {
      return nn::tiny_alexnet(16, 32, nn::AlexNetNorm::kBN, width);
    };
    const auto proxy = core::bench_proxy();
    w.recipe.base_batch = 8;
    w.recipe.global_batch = 8;
    w.recipe.epochs = 1;
    w.recipe.rule = core::LrRule::kLars;
    w.recipe.lars_trust_coeff = proxy.lars_trust;
    w.world = 2;
    w.threads = 2;
    w.overlap = true;
    w.bucket_bytes = 64 * 1024;
  } else if (name == "resnet_proxy_lars_single") {
    // The calibrated residual proxy's LARS recipe at batch 256 (Table 10),
    // single worker with a 4-thread intra-op context, eval every epoch.
    auto proxy = core::bench_proxy();
    w.data = proxy.dataset;
    w.model = proxy.resnet_factory();
    w.recipe = proxy.resnet_recipe(256, core::LrRule::kLars);
    if (tiny) w.recipe.epochs = 3;
    w.world = 0;
    w.threads = 4;
  } else {
    throw std::invalid_argument("unknown workload: " + name);
  }
  w.data.seed = seed;
  w.recipe.init_seed = seed;
  return w;
}

// ---- JSON output -----------------------------------------------------------

class JsonLine {
 public:
  JsonLine& num(const std::string& k, double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
    return raw(k, buf);
  }
  JsonLine& str(const std::string& k, const std::string& v) {
    std::string q = "\"";
    q += v;
    q += '"';
    return raw(k, q);
  }
  JsonLine& boolean(const std::string& k, bool v) {
    return raw(k, v ? "true" : "false");
  }
  JsonLine& nums(const std::string& k, const std::vector<double>& v) {
    std::string s = "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%s%.17g", i ? "," : "", v[i]);
      s += buf;
    }
    return raw(k, s + "]");
  }
  JsonLine& raw(const std::string& k, const std::string& v) {
    if (!body_.empty()) body_ += ',';
    body_ += '"';
    body_ += k;
    body_ += "\":";
    body_ += v;
    return *this;
  }
  std::string text() const { return "{" + body_ + "}"; }
  void print() const {
    std::printf("%s\n", text().c_str());
    std::fflush(stdout);
  }

 private:
  std::string body_;
};

std::string hex(std::uint64_t h) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

double ms(std::int64_t ns) { return static_cast<double>(ns) / 1e6; }

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ---- one run ---------------------------------------------------------------

struct RunOutput {
  train::TrainResult result;
  std::vector<float> weights;
  std::int64_t iterations = 0;
  comm::TrafficStats traffic;
  std::int64_t exposed_ns = 0, total_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t iters_per_epoch = 0;
};

RunOutput run_workload(const Workload& w, const data::SyntheticImageNet& ds,
                       const core::Recipe& recipe, Ledger& ledger,
                       bool traced) {
  const auto opt_factory = [&]() -> std::unique_ptr<optim::Optimizer> {
    return std::make_unique<TimedOptimizer>(recipe.optimizer_factory(),
                                            ledger);
  };
  const ModelFactory model_factory = [&] {
    return traced ? wrap_layers(w.model(), ledger) : w.model();
  };
  train::TrainOptions opts = recipe.options;
  opts.compute_threads = w.threads;
  opts.overlap_comm = w.overlap;
  opts.bucket_bytes = w.bucket_bytes;

  RunOutput out;
  out.iters_per_epoch = ds.train_size() / w.recipe.global_batch;
  if (w.world == 0) {
    auto net = model_factory();
    auto opt = opt_factory();
    out.result = train::train_single(*net, *opt, *recipe.schedule, ds, opts);
    out.weights = net->flatten_params();
    out.iterations = out.result.iterations_run;
  } else {
    auto d = train::train_sync_data_parallel(model_factory, opt_factory,
                                             *recipe.schedule, ds, opts,
                                             w.world, comm::AllreduceAlgo::kRing);
    out.result = std::move(d.result);
    out.weights = std::move(d.final_weights);
    out.iterations = d.iterations;
    out.traffic = d.traffic;
    out.exposed_ns = d.exposed_comm_ns;
    out.total_ns = d.total_comm_ns;
  }
  out.end_ns = now_ns();
  return out;
}

/// Steps after the first whose interval holds no evaluation (the trainers
/// evaluate after an epoch's last step, so the next interval carries it).
std::vector<std::size_t> clean_steps(const Ledger& ledger,
                                     std::int64_t iters_per_epoch) {
  std::vector<std::size_t> idx;
  const auto& st = ledger.steps();
  for (std::size_t i = 1; i < st.size(); ++i) {
    if (static_cast<std::int64_t>(i) % iters_per_epoch != 0) idx.push_back(i);
  }
  return idx;
}

void add_common(JsonLine& j, const std::string& mode, const Ledger& ledger,
                const RunOutput& r) {
  const auto& st = ledger.steps();
  j.str("mode", mode)
      .num("setup_s", static_cast<double>(ledger.setup_ns()) / 1e9)
      .num("wall_s", static_cast<double>(r.end_ns - ledger.start_ns()) / 1e9);
  std::vector<double> step_s;
  for (const std::size_t i : clean_steps(ledger, r.iters_per_epoch)) {
    step_s.push_back(static_cast<double>(st[i].end_ns - st[i - 1].end_ns) /
                     1e9);
  }
  j.nums("clean_step_s", step_s)
      .num("iterations", static_cast<double>(r.iterations))
      .str("hash", hex(fnv1a(r.weights)))
      .num("best_test_acc", r.result.best_test_acc)
      .boolean("diverged", r.result.diverged)
      .str("isa", kernels::to_string(kernels::active()));
}

// ---- outside-in probes (trace mode) ---------------------------------------

/// Mean ms of ShardedLoader::load_train over rank 0's shards of the run.
double probe_data_ms(const Workload& w, const data::SyntheticImageNet& ds,
                     const train::TrainOptions& opts, std::int64_t iters) {
  const int world = std::max(1, w.world);
  const ComputeContext ctx(std::max<std::size_t>(1, w.threads / world));
  data::ShardedLoader loader(ds, w.recipe.global_batch, 0, world,
                             opts.augment);
  const std::int64_t n = std::min<std::int64_t>(iters, 8);
  (void)loader.load_train(0, 0, ctx);  // warm, as the in-run loads are
  const std::int64_t t0 = now_ns();
  for (std::int64_t it = 0; it < n; ++it) (void)loader.load_train(0, it, ctx);
  return ms(now_ns() - t0) / static_cast<double>(n);
}

/// Median ms of one train::evaluate on a fresh replica, rank 0's context.
double probe_eval_ms(const Workload& w, const data::SyntheticImageNet& ds) {
  const int world = std::max(1, w.world);
  const ComputeContext ctx(std::max<std::size_t>(1, w.threads / world));
  auto net = w.model();
  Rng rng(w.recipe.init_seed);
  net->init(rng);
  std::vector<double> t;
  for (int rep = 0; rep < 3; ++rep) {
    const std::int64_t t0 = now_ns();
    (void)train::evaluate(*net, ds, 256, ctx);
    t.push_back(ms(now_ns() - t0));
  }
  return median(t);
}

/// Transfer time of the workload's gradient allreduce on a fresh cluster:
/// barrier first so every rank arrives together, then time one allreduce
/// (one bucket, scaled by the bucket count, when bucketed). Rank 0, median.
double probe_transfer_ms(const Workload& w, std::int64_t grad_floats) {
  const std::int64_t bucket_floats =
      w.bucket_bytes > 0 ? w.bucket_bytes / 4 : grad_floats;
  const std::int64_t buckets = (grad_floats + bucket_floats - 1) / bucket_floats;
  const int reps = buckets > 1 ? 25 : 3;
  comm::SimCluster cluster(comm::ClusterOptions{w.world, w.threads});
  std::vector<double> t;
  cluster.run([&](comm::Communicator& c) {
    std::vector<float> buf(static_cast<std::size_t>(bucket_floats), 1.0f);
    for (int rep = 0; rep < reps; ++rep) {
      c.barrier();
      const std::int64_t t0 = now_ns();
      c.allreduce_sum(buf, comm::AllreduceAlgo::kRing);
      if (c.rank() == 0) t.push_back(ms(now_ns() - t0));
    }
  });
  return median(t) * static_cast<double>(buckets);
}

/// Single-thread sgemm peak at a fixed square shape: best rate of the reps,
/// GF/s.
double probe_sgemm_gflops() {
  constexpr std::int64_t n = 512;
  const ComputeContext ctx(1);
  std::vector<float> a(n * n), b(n * n), c(n * n, 0.0f);
  Rng rng(3);
  for (auto& v : a) v = static_cast<float>(rng.normal());
  for (auto& v : b) v = static_cast<float>(rng.normal());
  const auto once = [&] {
    sgemm(ctx, Trans::kNo, Trans::kNo, n, n, n, 1.0f, a.data(), n, b.data(),
          n, 0.0f, c.data(), n);
  };
  once();
  std::vector<double> rates;
  for (int rep = 0; rep < 15; ++rep) {
    const std::int64_t t0 = now_ns();
    once();
    rates.push_back(2.0 * n * n * n / static_cast<double>(now_ns() - t0));
  }
  return *std::max_element(rates.begin(), rates.end());
}

void add_trace(JsonLine& j, const Workload& w,
               const data::SyntheticImageNet& ds, const core::Recipe& recipe,
               const Ledger& ledger, const RunOutput& r) {
  const auto idx = clean_steps(ledger, r.iters_per_epoch);
  if (idx.empty()) throw std::runtime_error("trace: no steady-state step");
  const auto& st = ledger.steps();
  const auto kinds = ledger.kinds();
  const double n = static_cast<double>(idx.size());
  std::vector<double> kfwd(kinds.size()), kbwd(kinds.size()),
      kflops(kinds.size());
  double step = 0, optim = 0, sync = 0, allocs = 0;
  for (const std::size_t i : idx) {
    step += ms(st[i].end_ns - st[i - 1].end_ns);
    optim += ms(st[i].optim_ns);
    sync += ms(st[i].sync_ns);
    allocs += static_cast<double>(st[i].allocs);
    for (std::size_t k = 0; k < st[i].fwd_ns.size(); ++k) {
      kfwd[k] += ms(st[i].fwd_ns[k]);
      kbwd[k] += ms(st[i].bwd_ns[k]);
      kflops[k] += static_cast<double>(st[i].fwd_flops[k]);
    }
  }
  double fwd = 0, bwd = 0, flops = 0;
  for (std::size_t k = 0; k < kinds.size(); ++k) {
    fwd += kfwd[k];
    bwd += kbwd[k];
    flops += kflops[k];
  }
  const double iters = static_cast<double>(std::max<std::int64_t>(1, r.iterations));
  const double exposed = ms(r.exposed_ns) / iters;
  const double total = ms(r.total_ns) / iters;
  const double data_ms = probe_data_ms(w, ds, recipe.options, r.iters_per_epoch);
  const double transfer =
      w.world > 0
          ? probe_transfer_ms(w, static_cast<std::int64_t>(r.weights.size()))
          : 0.0;
  // GF/s = flops / (ms * 1e6); backward is counted as 2x forward.
  const auto gflops = [](double f, double t) { return t > 0 ? f / (t * 1e6) : 0.0; };
  std::string kj = "[";
  for (std::size_t k = 0; k < kinds.size(); ++k) {
    JsonLine e;
    e.str("kind", kinds[k])
        .num("fwd_ms", kfwd[k] / n)
        .num("bwd_ms", kbwd[k] / n)
        .num("fwd_gflops", gflops(kflops[k], kfwd[k]))
        .num("bwd_gflops", gflops(2 * kflops[k], kbwd[k]));
    if (k) kj += ',';
    kj += e.text();
  }
  j.raw("kinds", kj + "]");

  JsonLine m;
  m.num("data.load_ms", data_ms)
      .num("nn.fwd_ms", fwd / n)
      .num("nn.bwd_ms", bwd / n)
      .num("nn.fwd_gflops", gflops(flops, fwd))
      .num("nn.bwd_gflops", gflops(2 * flops, bwd))
      .num("nn.plan_arena_mb",
           obs::metrics().gauge("plan.arena_bytes").value() / (1 << 20))
      .num("tensor.sgemm_gflops", probe_sgemm_gflops())
      .num("tensor.allocs_per_step", allocs / n)
      .num("optim.step_ms", optim / n)
      .num("comm.exposed_ms", exposed)
      .num("comm.total_ms", total)
      .num("comm.hidden_frac", total > 0 ? 1.0 - exposed / total : 0.0)
      .num("comm.bytes_per_step", static_cast<double>(r.traffic.bytes) / iters)
      .num("comm.msgs_per_step", static_cast<double>(r.traffic.messages) / iters)
      .num("comm.transfer_ms", transfer)
      .num("comm.wait_ms", std::max(0.0, exposed - transfer))
      .num("train.step_ms", step / n)
      .num("train.sync_ms", sync / n)
      .num("train.other_ms", (step - fwd - bwd - optim - sync) / n - data_ms)
      .num("train.eval_ms", probe_eval_ms(w, ds));
  j.raw("per_layer", m.text());
}

int run_trial(const std::string& name, std::uint64_t seed,
              const std::string& mode, bool tiny) {
  const Workload w = make_workload(name, seed, tiny);
  const bool traced = mode == "trace";
  if (!traced && mode != "train") {
    throw std::invalid_argument("unknown mode: " + mode);
  }
  Ledger ledger;
  ledger.start();
  const data::SyntheticImageNet ds(w.data);
  const core::Recipe recipe = core::make_recipe(w.recipe, ds);
  const RunOutput r = run_workload(w, ds, recipe, ledger, traced);

  JsonLine j;
  add_common(j, mode, ledger, r);
  j.num("global_batch", static_cast<double>(w.recipe.global_batch));
  if (traced) add_trace(j, w, ds, recipe, ledger, r);
  j.print();
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  std::string workload, mode = "train";
  std::uint64_t seed = 1;
  bool tiny = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--workload" && has_value) {
      workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--mode" && has_value) {
      mode = argv[++i];
    } else if (a == "--tiny") {
      tiny = true;
    } else {
      std::fprintf(stderr, "perfbench: bad argument %s\n", a.c_str());
      return 2;
    }
  }
  try {
    return perfbench::run_trial(workload, seed, mode, tiny);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}

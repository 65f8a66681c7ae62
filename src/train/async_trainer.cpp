#include "train/async_trainer.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <span>
#include <stdexcept>
#include <thread>
#include <vector>

#include "comm/param_server.hpp"
#include "data/loader.hpp"
#include "nn/loss.hpp"
#include "obs/flight.hpp"
#include "obs/trace.hpp"

namespace minsgd::train {

AsyncResult train_async_param_server(
    const std::function<std::unique_ptr<nn::Network>()>& model_factory,
    const optim::LrSchedule& schedule, const data::SyntheticImageNet& dataset,
    const TrainOptions& options, int workers) {
  if (workers <= 0) {
    throw std::invalid_argument("train_async_param_server: workers <= 0");
  }
  if (options.global_batch % workers != 0) {
    throw std::invalid_argument(
        "train_async_param_server: global_batch % workers != 0");
  }

  // Server starts from the same deterministic initialization the sync
  // trainers use.
  auto init_net = model_factory();
  Rng init_rng(options.init_seed);
  init_net->init(init_rng);
  comm::ParameterServer server(init_net->flatten_params());
  server.set_workers(workers);

  std::atomic<bool> abort{false};
  std::atomic<double> last_loss{0.0};
  // minsgd-analyze: allow(thread-spawn): async parameter-server workers are
  // rank threads, not intra-op compute — each owns a budgeted ComputeContext
  // so the process-wide thread total stays <= the global budget.
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(workers));

  // Worker threads split one global intra-op budget, mirroring SimCluster's
  // per-rank arithmetic: total pool workers stay <= budget.
  const std::size_t budget = options.compute_threads != 0
                                 ? options.compute_threads
                                 : ComputeContext::default_threads();
  const std::size_t per_worker =
      std::max<std::size_t>(1, budget / static_cast<std::size_t>(workers));

  for (int w = 0; w < workers; ++w) {
    threads.emplace_back([&, w] {
      obs::set_thread_rank(w);  // trace lane per worker
      const ComputeContext ctx(per_worker);
      auto net = model_factory();
      Rng worker_init(options.init_seed);
      net->init(worker_init);  // overwritten by the pull below
      // push_pull reads and writes the network's flat storage directly.
      const std::span<const float> grad = net->grad_span();
      const std::span<float> weights = net->param_span();
      server.pull(w, weights);

      data::ShardedLoader loader(dataset, options.global_batch, w, workers,
                                 options.augment);
      nn::SoftmaxCrossEntropy loss;
      Tensor logits, dlogits, dx;
      const std::int64_t iters = loader.iterations_per_epoch();
      double first_loss = -1.0;

      for (std::int64_t epoch = 0; epoch < options.epochs; ++epoch) {
        for (std::int64_t it = 0; it < iters; ++it) {
          if (abort.load(std::memory_order_relaxed)) return;
          data::Batch batch;
          {
            obs::ScopedSpan sp("phase.data", obs::cat::kPhase);
            batch = loader.load_train(epoch, it, ctx);
          }
          net->zero_grad();
          nn::LossResult lres;
          {
            obs::ScopedSpan sp("phase.forward", obs::cat::kPhase);
            net->forward(batch.x, logits, /*training=*/true, ctx);
            lres = loss.forward_backward(logits, batch.labels, &dlogits, ctx);
          }
          {
            obs::ScopedSpan sp("phase.backward", obs::cat::kPhase);
            net->backward(batch.x, logits, dlogits, dx, ctx);
          }
          const double lr = schedule.lr(server.updates_applied());
          {
            obs::ScopedSpan sp("phase.push_pull", obs::cat::kPhase);
            sp.set_bytes(static_cast<std::int64_t>(grad.size()) * 4);
            server.push_pull(w, grad, lr, weights);
          }
          MINSGD_FLIGHT(obs::FlightKind::kStep, obs::FlightOp::kNone, 0, 0,
                        0, 0, it);
          last_loss.store(lres.loss, std::memory_order_relaxed);
          if (first_loss < 0) first_loss = lres.loss;
          if (options.detect_divergence &&
              (!std::isfinite(lres.loss) ||
               lres.loss > options.divergence_factor * first_loss)) {
            abort.store(true, std::memory_order_relaxed);
            return;
          }
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  AsyncResult res;
  res.diverged = abort.load();
  res.updates_applied = server.updates_applied();
  res.max_staleness = server.max_staleness();
  res.final_train_loss = last_loss.load();
  // Evaluate the server's final weights.
  server.pull(0, init_net->param_span());
  res.final_test_acc = evaluate(*init_net, dataset);
  return res;
}

}  // namespace minsgd::train

#include "train/easgd.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <mutex>
#include <span>
#include <stdexcept>
#include <thread>
#include <vector>

#include "data/loader.hpp"
#include "nn/loss.hpp"
#include "obs/flight.hpp"
#include "obs/trace.hpp"
#include "optim/sgd.hpp"
#include "tensor/ops.hpp"

namespace minsgd::train {

EasgdResult train_easgd(
    const std::function<std::unique_ptr<nn::Network>()>& model_factory,
    const optim::LrSchedule& schedule, const data::SyntheticImageNet& dataset,
    const TrainOptions& options, int workers, EasgdConfig config) {
  if (workers <= 0) throw std::invalid_argument("train_easgd: workers <= 0");
  if (options.global_batch % workers != 0) {
    throw std::invalid_argument("train_easgd: global_batch % workers != 0");
  }
  if (config.alpha <= 0 || config.alpha >= 1) {
    throw std::invalid_argument("train_easgd: alpha must be in (0, 1)");
  }
  if (config.communication_period <= 0) {
    throw std::invalid_argument("train_easgd: communication_period <= 0");
  }

  // The shared center variable, mutex-protected like a parameter server:
  // the center network's own flat parameter storage.
  auto center_net = model_factory();
  Rng init_rng(options.init_seed);
  center_net->init(init_rng);
  const std::span<float> center = center_net->param_span();
  std::mutex center_mu;
  std::atomic<std::int64_t> elastic_updates{0};
  std::atomic<bool> abort{false};
  std::atomic<double> last_loss{0.0};

  // Worker threads split one global intra-op budget, mirroring SimCluster's
  // per-rank arithmetic: total pool workers stay <= budget.
  const std::size_t budget = options.compute_threads != 0
                                 ? options.compute_threads
                                 : ComputeContext::default_threads();
  const std::size_t per_worker =
      std::max<std::size_t>(1, budget / static_cast<std::size_t>(workers));

  // minsgd-lint: allow(thread-spawn): EASGD workers are rank threads, not
  // intra-op compute — each one owns a budgeted ComputeContext (per_worker
  // above), mirroring SimCluster's rank-thread arithmetic.
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(workers));
  for (int w = 0; w < workers; ++w) {
    threads.emplace_back([&, w] {
      obs::set_thread_rank(w);  // trace lane per worker
      const ComputeContext ctx(per_worker);
      auto net = model_factory();
      Rng wrng(options.init_seed);
      net->init(wrng);  // all workers start at the center
      auto params = net->params();
      optim::Sgd sgd({.momentum = 0.9, .weight_decay = 0.0005});

      data::ShardedLoader loader(dataset, options.global_batch, w, workers,
                                 options.augment);
      nn::SoftmaxCrossEntropy loss;
      Tensor logits, dlogits, dx;
      const std::int64_t iters = loader.iterations_per_epoch();
      double first_loss = -1.0;
      std::int64_t step = 0;
      const auto alpha = static_cast<float>(config.alpha);

      for (std::int64_t epoch = 0; epoch < options.epochs; ++epoch) {
        for (std::int64_t it = 0; it < iters; ++it, ++step) {
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
          {
            obs::ScopedSpan sp("phase.step", obs::cat::kPhase);
            sgd.step(params, schedule.lr(step), ctx);
          }
          MINSGD_FLIGHT(obs::FlightKind::kStep, obs::FlightOp::kNone, 0, 0,
                        0, 0, step);
          last_loss.store(lres.loss, std::memory_order_relaxed);
          if (first_loss < 0) first_loss = lres.loss;
          if (options.detect_divergence &&
              (!std::isfinite(lres.loss) ||
               lres.loss > options.divergence_factor * first_loss)) {
            abort.store(true, std::memory_order_relaxed);
            return;
          }

          if ((step + 1) % config.communication_period == 0) {
            // Elastic synchronization with the center.
            obs::ScopedSpan sp("phase.elastic", obs::cat::kPhase);
            const std::span<float> x = net->param_span();
            {
              std::lock_guard lk(center_mu);
              for (std::size_t i = 0; i < x.size(); ++i) {
                const float diff = x[i] - center[i];
                x[i] -= alpha * diff;
                center[i] += alpha * diff;
              }
            }
            elastic_updates.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  EasgdResult res;
  res.diverged = abort.load();
  res.elastic_updates = elastic_updates.load();
  res.final_train_loss = last_loss.load();
  res.center_test_acc = evaluate(*center_net, dataset);
  return res;
}

}  // namespace minsgd::train

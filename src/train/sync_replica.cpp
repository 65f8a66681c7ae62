#include "train/sync_replica.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <string>

#include "core/check.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "tensor/ops.hpp"
#include "train/overlap.hpp"

namespace minsgd::train {
namespace {

EpochRecord to_record(std::int64_t window, const RunLog::Window& w) {
  EpochRecord rec;
  rec.epoch = window;
  rec.lr = w.lr;
  rec.train_loss = w.iters ? w.loss_sum / static_cast<double>(w.iters) : 0.0;
  rec.train_acc = w.examples ? static_cast<double>(w.correct) /
                                   static_cast<double>(w.examples)
                             : 0.0;
  rec.test_acc = w.test_acc;
  return rec;
}

}  // namespace

void validate_sync_options(const TrainOptions& options,
                           std::int64_t global_batch, int world,
                           const char* who) {
  const auto reject = [&](const char* what) {
    throw std::invalid_argument(std::string(who) + ": " + what);
  };
  if (world <= 0) reject("world <= 0");
  if (global_batch % world != 0) reject("global_batch % world != 0");
  validate_bucket_bytes(options.bucket_bytes, who);
}

void publish_run_metrics(const comm::SimCluster& cluster,
                         std::int64_t exposed_ns, std::int64_t total_ns) {
  auto& reg = obs::metrics();
  const comm::TrafficStats traffic = cluster.total_traffic();
  reg.counter("train.traffic.messages").add(traffic.messages);
  reg.counter("train.traffic.bytes").add(traffic.bytes);
  for (const auto& [op, st] : cluster.traffic_by_op()) {
    reg.counter("train.traffic." + op + ".messages").add(st.messages);
    reg.counter("train.traffic." + op + ".bytes").add(st.bytes);
  }
  // Exposed vs total gradient-allreduce time: with overlap_comm the gap is
  // the communication the backward pass hid.
  reg.counter("train.allreduce.exposed_ns").add(exposed_ns);
  reg.counter("train.allreduce.total_ns").add(total_ns);
}

SyncReplica::SyncReplica(
    const std::function<std::unique_ptr<nn::Network>()>& model_factory,
    const std::function<std::unique_ptr<optim::Optimizer>()>& opt_factory,
    const TrainOptions& options, comm::AllreduceAlgo algo)
    : options_(options), algo_(algo), net_(model_factory()) {
  Rng init_rng(options.init_seed);
  net_->init(init_rng);
  init_rng_state_ = init_rng.state();
  net_->grad_span();  // bind the flat storage every reducer works in
  opt_ = opt_factory();
  params_ = net_->params();
}

SyncReplica::~SyncReplica() { detach(); }

void SyncReplica::attach(comm::Communicator& comm,
                         const data::ShardedLoader& loader) {
  detach();
  comm_ = &comm;
  loader_ = &loader;
  if (options_.overlap_comm) {
    overlap_ = std::make_unique<OverlapAllreducer>(
        *net_, comm, options_.bucket_bytes, algo_);
  }
}

void SyncReplica::detach() {
  if (overlap_) {
    overlap_exposed_ns_ += overlap_->exposed_ns();
    overlap_total_ns_ += overlap_->comm_ns();
    overlap_.reset();  // joins the comm worker before the transport changes
  }
  comm_ = nullptr;
  loader_ = nullptr;
}

std::int64_t SyncReplica::exposed_comm_ns() const {
  return serial_ns_ + overlap_exposed_ns_ +
         (overlap_ ? overlap_->exposed_ns() : 0);
}

std::int64_t SyncReplica::total_comm_ns() const {
  return serial_ns_ + overlap_total_ns_ + (overlap_ ? overlap_->comm_ns() : 0);
}

SyncReplica::StepStats SyncReplica::step(std::int64_t epoch, std::int64_t it,
                                         double lr, std::int64_t global_iter) {
  MINSGD_CHECK(comm_ != nullptr, "SyncReplica::step: not attached");
  const ComputeContext& ctx = comm_->ctx();
  {
    obs::ScopedSpan sp("phase.data", obs::cat::kPhase);
    loader_->load_train_into(epoch, it, ctx, batch_);
  }
  net_->zero_grad();
  nn::LossResult lres;
  {
    obs::ScopedSpan sp("phase.forward", obs::cat::kPhase);
    net_->forward(batch_.x, logits_, /*training=*/true, ctx);
    lres = loss_.forward_backward(logits_, batch_.labels, &dlogits_, ctx);
  }
  if (overlap_) overlap_->begin_iteration();
  {
    obs::ScopedSpan sp("phase.backward", obs::cat::kPhase);
    // With overlap on, the gradient-ready hook fires in here: each
    // finalized layer credits its buckets of the gradient span, and full
    // buckets reduce in place on the comm worker while earlier layers run.
    net_->backward(batch_.x, logits_, dlogits_, dx_, ctx);
  }
  // Each local gradient is the mean over the local shard, so the
  // global-batch mean is the rank-sum divided by world; params_' grads are
  // bound to the reduced span, so the optimizer reads it as is.
  const std::span<float> flat = reduce();
  {
    obs::ScopedSpan sp("phase.step", obs::cat::kPhase);
    scale(ctx, 1.0f / static_cast<float>(comm_->world()), flat);
    opt_->step(params_, lr, ctx);
  }
  MINSGD_FLIGHT(obs::FlightKind::kStep, obs::FlightOp::kNone, 0, 0,
                comm_->generation(), 0, global_iter);
  ++steps_done_;

  // Aggregate the loss/accuracy scalars for reporting.
  float stats[2] = {static_cast<float>(lres.loss),
                    static_cast<float>(lres.correct)};
  comm_->allreduce_sum(std::span<float>(stats, 2), algo_);
  return {stats[0], stats[1]};
}

std::span<float> SyncReplica::reduce() {
  if (overlap_) return overlap_->finish();  // waits on in-flight buckets
  const std::span<float> flat = net_->grad_span();
  obs::ScopedSpan sp;
  if (obs::tracer().enabled()) {
    sp.start("phase.allreduce", obs::cat::kPhase);
    sp.set_bytes(static_cast<std::int64_t>(flat.size()) * 4);
  }
  const auto t0 = std::chrono::steady_clock::now();
  // Fixed-stride buckets by flat offset; bucket_bytes 0 is one bucket.
  const std::size_t bucket =
      options_.bucket_bytes > 0
          ? static_cast<std::size_t>(options_.bucket_bytes / 4)
          : flat.size();
  for (std::span<float> rest = flat; !rest.empty();) {
    const auto n = std::min(bucket, rest.size());
    comm_->allreduce_sum(rest.subspan(0, n), algo_);
    rest = rest.subspan(n);
  }
  serial_ns_ += std::chrono::duration_cast<std::chrono::nanoseconds>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
  return flat;
}

bool SyncReplica::diverged(double mean_loss) {
  // Round through float so members that receive the baseline over the wire
  // (elastic joiners) hold the identical double.
  if (!first_loss_) {
    first_loss_ = static_cast<double>(static_cast<float>(mean_loss));
  }
  return options_.detect_divergence &&
         (!std::isfinite(mean_loss) ||
          mean_loss > kDivergenceFactor * *first_loss_);
}

void RunLog::finish(SyncReplica& replica, std::int64_t gi,
                    bool diverged_run) {
  std::lock_guard lk(mu);
  final_weights = replica.net().flatten_params();
  iterations = gi;
  diverged = diverged_run;
  exposed_ns = replica.exposed_comm_ns();
  total_ns = replica.total_comm_ns();
}

TrainResult RunLog::result() {
  std::lock_guard lk(mu);
  TrainResult res;
  for (const auto& [window, w] : windows) {
    res.epochs.push_back(to_record(window, w));
  }
  finalize(res);
  res.iterations_run = iterations;
  res.diverged = diverged;
  return res;
}

void run_iteration(SyncReplica& replica, const RunShape& shape, RunLog& log,
                   std::int64_t& gi, bool& diverged,
                   const std::function<void(std::int64_t)>& after_step) {
  comm::Communicator& comm = replica.comm();
  const std::int64_t ipe = replica.loader().iterations_per_epoch();
  const auto s = replica.step(gi / ipe, gi % ipe, shape.schedule.lr(gi), gi);
  const double mean_loss = s.loss / comm.world();
  // Every rank sees the same scalars, so every rank agrees.
  if (replica.diverged(mean_loss)) diverged = true;
  const bool root = comm.rank() == 0;
  const std::int64_t window = gi / shape.window_iters;
  if (root) {
    std::lock_guard lk(log.mu);
    RunLog::Window& w = log.windows[window];
    if (w.iters == 0) w.lr = shape.schedule.lr(window * shape.window_iters);
    w.loss_sum += mean_loss;
    w.correct += static_cast<std::int64_t>(s.correct);
    w.examples += replica.loader().global_batch();
    ++w.iters;
  }
  if (after_step) after_step(gi);
  ++gi;

  const bool last = gi >= shape.total_iters || diverged;
  if (gi % shape.window_iters != 0 && !last) return;
  if (root) {
    const bool eval_now = window % shape.options.eval_every == 0 || last;
    const double acc =
        eval_now ? evaluate(replica.net(), shape.dataset, 256, comm.ctx())
                 : 0.0;
    std::lock_guard lk(log.mu);
    RunLog::Window& w = log.windows[window];
    w.test_acc = acc;
    if (shape.options.verbose && shape.print_world) {
      std::printf(
          "window %3lld  world %d  lr %.5f  loss %.4f  test_acc %.4f\n",
          static_cast<long long>(window), comm.world(), w.lr,
          w.loss_sum / static_cast<double>(w.iters), acc);
      std::fflush(stdout);
    } else if (shape.options.verbose) {
      print_epoch(to_record(window, w));
    }
  }
  comm.barrier();  // keep ranks aligned across rank 0's evaluation
}

void run_fixed_world(SyncReplica& replica, const RunShape& shape,
                     std::int64_t start, RunLog& log,
                     const std::function<void(std::int64_t)>& after_step) {
  const bool root = replica.comm().rank() == 0;
  std::int64_t gi = start;
  bool diverged = false;
  try {
    while (gi < shape.total_iters && !diverged) {
      run_iteration(replica, shape, log, gi, diverged, after_step);
    }
  } catch (...) {
    if (root) log.finish(replica, gi, diverged);
    throw;
  }
  if (root) log.finish(replica, gi, diverged);
}

}  // namespace minsgd::train

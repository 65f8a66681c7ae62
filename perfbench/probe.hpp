// Outside-in probes for the benchmark's traced run.
//
// Nothing here reaches inside the library: a TimedLayer is a delegating
// nn::Layer around one top-level layer of a model, and a TimedOptimizer is
// a delegating optim::Optimizer. Both forward every call the trainers and
// the memory planner make (forward/backward, plan walks, params, buffers,
// rng streams, init, flops, backward_reads_*), so the execution plan, the
// grad-ready hook count and the trained bytes are unchanged. Their clocks
// record into a Ledger, only on the primary thread: SimCluster rank 0, or
// the caller's thread under train_single.
//
// The Ledger cuts rank 0's run into steps at optimizer-step ends. Step 0
// runs from the workload's start to the end of the first step (the set-up
// interval); step i > 0 runs from the end of step i-1 to the end of step i.
// Evaluation forwards (training == false) are passed through untimed.
#pragma once

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "nn/layer.hpp"
#include "nn/network.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "optim/optimizer.hpp"

namespace perfbench {

namespace obs = minsgd::obs;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Maps a Layer::name() to a metric-safe kind: "->" becomes "-", every other
/// character outside [A-Za-z0-9_.-] becomes "_", runs of "_" collapse and a
/// trailing "_" is dropped. "conv3x3(16->16)/s1" -> "conv3x3_16-16_s1".
inline std::string layer_kind(const std::string& name) {
  std::string out;
  for (std::size_t i = 0; i < name.size(); ++i) {
    const char c = name[i];
    if (c == '-' && i + 1 < name.size() && name[i + 1] == '>') {
      out += '-';
      ++i;
      continue;
    }
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '-' || c == '_';
    const char m = ok ? c : '_';
    if (m == '_' && !out.empty() && out.back() == '_') continue;
    out += m;
  }
  while (!out.empty() && out.back() == '_') out.pop_back();
  return out;
}

/// 64-bit FNV-1a over the bytes of a float vector.
inline std::uint64_t fnv1a(const std::vector<float>& v) {
  std::uint64_t h = 1469598103934665603ULL;
  const auto* p = reinterpret_cast<const unsigned char*>(v.data());
  for (std::size_t i = 0; i < v.size() * sizeof(float); ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

/// Rank 0's per-step record. Per-kind vectors are indexed by Ledger::kind.
struct StepRecord {
  std::int64_t end_ns = 0;
  std::int64_t optim_ns = 0;
  /// From the end of the last backward layer to the optimizer step:
  /// gradient flatten, allreduce (or the wait on overlapped buckets),
  /// scale and unflatten. 0 when layers are not timed.
  std::int64_t sync_ns = 0;
  std::int64_t allocs = 0;  // process-wide tensor.allocs delta
  std::vector<std::int64_t> fwd_ns, bwd_ns, fwd_flops;
};

class Ledger {
 public:
  Ledger() : allocs_(obs::metrics().counter("tensor.allocs")) {}

  /// Starts the workload clock; step 0 is measured from here.
  void start() {
    start_ns_ = now_ns();
    allocs_at_ = allocs_.value();
  }
  std::int64_t start_ns() const { return start_ns_; }
  /// From start() to the end of the first step; 0 before it.
  std::int64_t setup_ns() const {
    return steps_.empty() ? 0 : steps_[0].end_ns - start_ns_;
  }

  static bool primary_thread() { return obs::thread_rank() <= 0; }

  /// Id of a layer kind; safe from every rank thread.
  std::size_t kind(const std::string& layer_name) {
    const std::string k = layer_kind(layer_name);
    std::lock_guard lk(mu_);
    for (std::size_t i = 0; i < kinds_.size(); ++i) {
      if (kinds_[i] == k) return i;
    }
    kinds_.push_back(k);
    return kinds_.size() - 1;
  }
  std::vector<std::string> kinds() const {
    std::lock_guard lk(mu_);
    return kinds_;
  }

  // Primary thread only ------------------------------------------------
  void add_fwd(std::size_t kind, std::int64_t ns, std::int64_t flops) {
    grow(kind);
    cur_.fwd_ns[kind] += ns;
    cur_.fwd_flops[kind] += flops;
  }
  void add_bwd(std::size_t kind, std::int64_t t0, std::int64_t t1) {
    grow(kind);
    cur_.bwd_ns[kind] += t1 - t0;
    last_bwd_end_ = t1;
  }
  /// Closes the current step; [t0, t1] is its optimizer step.
  void end_step(std::int64_t t0, std::int64_t t1) {
    cur_.end_ns = t1;
    cur_.optim_ns = t1 - t0;
    cur_.sync_ns = last_bwd_end_ > 0 ? t0 - last_bwd_end_ : 0;
    last_bwd_end_ = 0;
    const std::int64_t a = allocs_.value();
    cur_.allocs = a - allocs_at_;
    allocs_at_ = a;
    steps_.push_back(std::move(cur_));
    cur_ = StepRecord{};
  }

  /// Read after the run has joined its threads.
  const std::vector<StepRecord>& steps() const { return steps_; }

 private:
  void grow(std::size_t kind) {
    if (cur_.fwd_ns.size() <= kind) {
      cur_.fwd_ns.resize(kind + 1, 0);
      cur_.bwd_ns.resize(kind + 1, 0);
      cur_.fwd_flops.resize(kind + 1, 0);
    }
  }

  obs::Counter& allocs_;
  std::int64_t start_ns_ = 0;
  std::int64_t allocs_at_ = 0;
  std::int64_t last_bwd_end_ = 0;
  StepRecord cur_;
  std::vector<StepRecord> steps_;
  mutable std::mutex mu_;  // guards kinds_
  std::vector<std::string> kinds_;
};

/// Delegating layer that times its inner layer's training forward/backward.
/// Shares ownership of the model the inner layer lives in.
class TimedLayer final : public minsgd::nn::Layer {
 public:
  TimedLayer(std::shared_ptr<minsgd::nn::Network> owner,
             minsgd::nn::Layer& inner, Ledger& ledger)
      : owner_(std::move(owner)),
        inner_(inner),
        ledger_(ledger),
        kind_(ledger.kind(inner.name())) {}

  std::string name() const override { return inner_.name(); }
  minsgd::Shape output_shape(const minsgd::Shape& in) const override {
    return inner_.output_shape(in);
  }
  std::vector<minsgd::nn::ParamRef> params() override {
    return inner_.params();
  }
  std::vector<minsgd::nn::BufferRef> buffers() override {
    return inner_.buffers();
  }
  std::vector<minsgd::Rng*> rng_streams() override {
    return inner_.rng_streams();
  }
  void init(minsgd::Rng& rng) override { inner_.init(rng); }
  std::int64_t flops(const minsgd::Shape& in) const override {
    return inner_.flops(in);
  }
  minsgd::Shape plan_forward(minsgd::nn::PlanBuilder& b,
                             const minsgd::Shape& in) override {
    return inner_.plan_forward(b, in);
  }
  void plan_backward(minsgd::nn::PlanBuilder& b,
                     const minsgd::Shape& in) override {
    inner_.plan_backward(b, in);
  }
  bool backward_reads_input() const override {
    return inner_.backward_reads_input();
  }
  bool backward_reads_output() const override {
    return inner_.backward_reads_output();
  }

 protected:
  void do_forward(const minsgd::Tensor& x, minsgd::Tensor& y, bool training,
                  const minsgd::ComputeContext& ctx,
                  minsgd::nn::PlanContext& pc) override {
    if (!training || !Ledger::primary_thread()) {
      inner_.forward(x, y, training, ctx, &pc);
      return;
    }
    const std::int64_t t0 = now_ns();
    inner_.forward(x, y, training, ctx, &pc);
    ledger_.add_fwd(kind_, now_ns() - t0, batch_flops(x.shape()));
  }
  void do_backward(const minsgd::Tensor& x, const minsgd::Tensor& y,
                   const minsgd::Tensor& dy, minsgd::Tensor& dx,
                   const minsgd::ComputeContext& ctx,
                   minsgd::nn::PlanContext& pc) override {
    if (!Ledger::primary_thread()) {
      inner_.backward(x, y, dy, dx, ctx, &pc);
      return;
    }
    const std::int64_t t0 = now_ns();
    inner_.backward(x, y, dy, dx, ctx, &pc);
    ledger_.add_bwd(kind_, t0, now_ns());
  }

 private:
  /// Layer::flops is per image; scale by the batch. Cached per shape.
  std::int64_t batch_flops(const minsgd::Shape& s) {
    if (!(s == flops_shape_)) {
      minsgd::Shape one;
      switch (s.rank()) {
        case 4: one = {1, s[1], s[2], s[3]}; break;
        case 3: one = {1, s[1], s[2]}; break;
        case 2: one = {1, s[1]}; break;
        default: one = {1}; break;
      }
      flops_shape_ = s;
      flops_ = inner_.flops(one) * s[0];
    }
    return flops_;
  }

  std::shared_ptr<minsgd::nn::Network> owner_;
  minsgd::nn::Layer& inner_;
  Ledger& ledger_;
  std::size_t kind_;
  minsgd::Shape flops_shape_;
  std::int64_t flops_ = 0;
};

/// Rebuilds `net` as a network of TimedLayers over its top-level layers,
/// under the same label (so parameter names and order are unchanged).
inline std::unique_ptr<minsgd::nn::Network> wrap_layers(
    std::unique_ptr<minsgd::nn::Network> net, Ledger& ledger) {
  std::shared_ptr<minsgd::nn::Network> owner(std::move(net));
  auto out = std::make_unique<minsgd::nn::Network>(owner->name());
  for (std::size_t i = 0; i < owner->size(); ++i) {
    out->add(std::make_unique<TimedLayer>(owner, owner->layer(i), ledger));
  }
  return out;
}

/// Delegating optimizer: times rank 0's step and closes its Ledger step.
class TimedOptimizer final : public minsgd::optim::Optimizer {
 public:
  TimedOptimizer(std::unique_ptr<minsgd::optim::Optimizer> inner,
                 Ledger& ledger)
      : inner_(std::move(inner)), ledger_(ledger) {}

  void reset() override { inner_->reset(); }
  void save_state(std::ostream& out) const override {
    inner_->save_state(out);
  }
  void load_state(std::istream& in) override { inner_->load_state(in); }

 protected:
  void do_step(std::span<minsgd::nn::ParamRef> params, double lr,
               const minsgd::ComputeContext& ctx) override {
    if (!Ledger::primary_thread()) {
      inner_->step(params, lr, ctx);
      return;
    }
    const std::int64_t t0 = now_ns();
    inner_->step(params, lr, ctx);
    ledger_.end_step(t0, now_ns());
  }

 private:
  std::unique_ptr<minsgd::optim::Optimizer> inner_;
  Ledger& ledger_;
};

}  // namespace perfbench

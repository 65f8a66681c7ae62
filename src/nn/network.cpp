#include "nn/network.hpp"

#include <algorithm>
#include <new>
#include <stdexcept>
#include <utility>

#include "obs/trace.hpp"
#include "tensor/ops.hpp"

namespace minsgd::nn {
namespace {

constexpr std::size_t kFlatAlign = 64;  // cacheline, like the plan arena

}  // namespace

Network& Network::add(LayerPtr layer) {
  if (!layer) throw std::invalid_argument("Network::add: null layer");
  if (param_buf_) {
    throw std::logic_error("Network::add: parameters already materialized");
  }
  layers_.push_back(std::move(layer));
  param_cache_valid_ = false;
  return *this;
}

std::string Network::name() const { return label_; }

Shape Network::output_shape(const Shape& input) const {
  Shape s = input;
  for (const auto& l : layers_) s = l->output_shape(s);
  return s;
}

bool Network::backward_reads_input() const {
  return layers_.empty() || layers_.front()->backward_reads_input();
}

Shape Network::plan_forward(PlanBuilder& builder, const Shape& input) {
  plan_act_.assign(layers_.size(), kNoTensor);
  plan_dact_.assign(layers_.size(), kNoTensor);
  plan_in_shapes_.assign(layers_.size(), Shape{});
  plan_input_ = input;
  plan_epoch_ = builder.epoch();
  plan_training_ = builder.training();
  Shape cur = input;
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    plan_in_shapes_[i] = cur;
    const std::int32_t s0 = builder.now() + 1;
    cur = layers_[i]->plan_forward(builder, cur);
    // The layer's output is defined over its forward region; its input is
    // read throughout that region.
    plan_act_[i] = builder.add(cur, s0, builder.now());
    if (i > 0) builder.extend(plan_act_[i - 1], builder.now());
  }
  return cur;
}

void Network::plan_backward(PlanBuilder& builder, const Shape& /*input*/) {
  const std::size_t n = layers_.size();
  for (std::size_t i = n; i-- > 0;) {
    const std::int32_t s0 = builder.now() + 1;
    layers_[i]->plan_backward(builder, plan_in_shapes_[i]);
    const std::int32_t s1 = builder.now();
    // dx of layer i — defined over this region, read as dy through layer
    // i-1's region (extended there on the next loop turn).
    if (i > 0) plan_dact_[i - 1] = builder.add(plan_in_shapes_[i], s0, s1);
    if (i + 1 < n) builder.extend(plan_dact_[i], s1);
    // Activations read during this region: only layers that declare a data
    // dependence extend an interval; the rest die at their last forward
    // read and the arena aliases them.
    if (layers_[i]->backward_reads_output()) builder.extend(plan_act_[i], s1);
    if (i > 0 && layers_[i]->backward_reads_input()) {
      builder.extend(plan_act_[i - 1], s1);
    }
  }
}

void Network::plan_self(const Shape& input, bool training) {
  if (!(self_planned() && input == plan_input_ &&
        training == plan_training_)) {
    plan_.build(*this, input, training);
  }
}

void Network::do_forward(const Tensor& x, Tensor& y, bool training,
                         const ComputeContext& ctx, PlanContext& pc) {
  if (layers_.empty()) throw std::logic_error("Network::forward: empty net");
  // Span names are built only when tracing is on; the disabled path costs
  // one atomic load per layer.
  const bool traced = obs::tracer().enabled();
  obs::ScopedSpan outer;
  if (traced) {
    outer.start("forward." + label_, obs::cat::kCompute);
    outer.set_threads(static_cast<int>(ctx.threads()));
  }
  // Nested under the plan that walked this network at this geometry: run
  // on the enclosing arena. Otherwise run on the owned plan.
  const bool nested = plan_matches(pc) && x.shape() == plan_input_ &&
                      training == plan_training_;
  if (!nested) plan_self(x.shape(), training);
  PlanContext own(nested ? nullptr : &plan_);
  PlanContext& run = nested ? pc : own;
  const Tensor* cur = &x;
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    Tensor& out = run.plan()->tensor(plan_act_[i]);
    obs::ScopedSpan sp;
    if (traced) {
      sp.start("fwd." + layers_[i]->name(), obs::cat::kCompute);
      sp.set_threads(static_cast<int>(ctx.threads()));
    }
    layers_[i]->forward(*cur, out, training, ctx, &run);
    cur = &out;
  }
  // The caller owns y; hand it the final activation. Backward reads the
  // arena slice, not y.
  y.resize(cur->shape());
  copy(ctx, cur->span(), y.span());
}

void Network::do_backward(const Tensor& x, const Tensor& /*y*/,
                          const Tensor& dy, Tensor& dx,
                          const ComputeContext& ctx, PlanContext& pc) {
  const bool nested = plan_matches(pc);
  if (!nested && !self_planned()) {
    throw std::logic_error("Network::backward without a planned forward");
  }
  if (!plan_training_) {
    throw std::logic_error(
        "Network::backward after a forward-only (training=false) forward");
  }
  if (x.shape() != plan_input_) {
    throw std::logic_error("Network::backward: x differs from the forward's");
  }
  const bool traced = obs::tracer().enabled();
  obs::ScopedSpan outer;
  if (traced) {
    outer.start("backward." + label_, obs::cat::kCompute);
    outer.set_threads(static_cast<int>(ctx.threads()));
  }
  PlanContext own(nested ? nullptr : &plan_);
  PlanContext& run = nested ? pc : own;
  ExecutionPlan& plan = *run.plan();
  const Tensor* cur_dy = &dy;
  for (std::size_t i = layers_.size(); i-- > 0;) {
    const Tensor& input = (i == 0) ? x : plan.tensor(plan_act_[i - 1]);
    Tensor& out_dx = (i == 0) ? dx : plan.tensor(plan_dact_[i - 1]);
    {
      obs::ScopedSpan sp;
      if (traced) {
        sp.start("bwd." + layers_[i]->name(), obs::cat::kCompute);
        sp.set_threads(static_cast<int>(ctx.threads()));
      }
      layers_[i]->backward(input, plan.tensor(plan_act_[i]), *cur_dy, out_dx,
                           ctx, &run);
    }
    if (grad_ready_hook_) grad_ready_hook_(i, *layers_[i]);
    cur_dy = &out_dx;
  }
}

const std::vector<ParamRef>& Network::cached_params() {
  if (!param_cache_valid_) {
    param_cache_.clear();
    flat_size_ = 0;
    for (std::size_t i = 0; i < layers_.size(); ++i) {
      for (ParamRef p : layers_[i]->params()) {
        p.name = label_ + "." + std::to_string(i) + "." +
                 layers_[i]->name() + "." + p.name;
        flat_size_ += p.value->numel();
        param_cache_.push_back(std::move(p));
      }
    }
    param_cache_valid_ = true;
  }
  return param_cache_;
}

std::vector<ParamRef> Network::params() { return cached_params(); }

std::vector<BufferRef> Network::buffers() {
  std::vector<BufferRef> all;
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    for (BufferRef b : layers_[i]->buffers()) {
      b.name = label_ + "." + std::to_string(i) + "." +
               layers_[i]->name() + "." + b.name;
      all.push_back(b);
    }
  }
  return all;
}

std::vector<Rng*> Network::rng_streams() {
  std::vector<Rng*> all;
  for (auto& l : layers_) {
    auto s = l->rng_streams();
    all.insert(all.end(), s.begin(), s.end());
  }
  return all;
}

void Network::init(Rng& rng) {
  for (auto& l : layers_) l->init(rng);
}

std::int64_t Network::flops(const Shape& input) const {
  std::int64_t total = 0;
  Shape s = input;
  for (const auto& l : layers_) {
    total += l->flops(s);
    s = l->output_shape(s);
  }
  return total;
}

std::int64_t Network::num_params() {
  cached_params();
  return flat_size_;
}

void Network::AlignedFree::operator()(float* p) const {
  ::operator delete[](p, std::align_val_t{kFlatAlign});
}

void Network::materialize() {
  const auto& ps = cached_params();
  const auto n = static_cast<std::size_t>(flat_size_);
  // Uninitialized allocation: pages become resident as the copies below
  // touch them, while bind() frees each parameter's old storage.
  const auto alloc = [n] {
    return FlatBuffer(static_cast<float*>(::operator new[](
        n * sizeof(float), std::align_val_t{kFlatAlign})));
  };
  param_buf_ = alloc();
  grad_buf_ = alloc();
  std::int64_t off = 0;
  for (const auto& p : ps) {
    const std::int64_t k = p.value->numel();
    MINSGD_CHECK(!p.value->bound() && !p.grad->bound() && p.grad->numel() == k,
                 "Network(", label_, "): parameter ", p.name,
                 " is already bound into another buffer");
    for (auto [t, buf] : {std::pair{p.value, param_buf_.get()},
                          std::pair{p.grad, grad_buf_.get()}}) {
      std::copy_n(t->data(), k, buf + off);
      t->bind(buf + off, k, t->shape());
    }
    off += k;
  }
}

std::span<float> Network::param_span() {
  if (!param_buf_) materialize();
  return {param_buf_.get(), static_cast<std::size_t>(flat_size_)};
}

std::span<float> Network::grad_span() {
  if (!param_buf_) materialize();
  return {grad_buf_.get(), static_cast<std::size_t>(flat_size_)};
}

void Network::zero_grad() {
  const std::span<float> g = grad_span();
  std::fill(g.begin(), g.end(), 0.0f);
}

std::vector<float> Network::flatten_params() {
  const std::span<const float> w = param_span();
  return {w.begin(), w.end()};
}

void Network::unflatten_params(std::span<const float> flat) {
  const std::span<float> w = param_span();
  if (flat.size() != w.size()) {
    throw std::invalid_argument("unflatten_params: size mismatch");
  }
  std::copy(flat.begin(), flat.end(), w.begin());
}

}  // namespace minsgd::nn

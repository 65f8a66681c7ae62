#include "train/overlap.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <string>

#include "comm/cluster.hpp"
#include "core/check.hpp"
#include "obs/trace.hpp"

namespace minsgd::train {

void validate_bucket_bytes(std::int64_t bucket_bytes, const char* who) {
  if (bucket_bytes < 0 || (bucket_bytes > 0 && bucket_bytes < 4)) {
    throw std::invalid_argument(
        std::string(who) +
        ": bucket_bytes must be 0 (single bucket) or >= 4");
  }
}

OverlapAllreducer::OverlapAllreducer(nn::Network& net,
                                     comm::Communicator& comm,
                                     std::int64_t bucket_bytes,
                                     comm::AllreduceAlgo algo)
    : net_(net), engine_(comm), algo_(algo), grad_(net.grad_span()) {
  validate_bucket_bytes(bucket_bytes, "OverlapAllreducer");
  // Map every top-level layer to its contiguous range of the gradient span
  // (params() walks layers in order, so the offsets accumulate).
  std::size_t off = 0;
  layers_.resize(net.size());
  for (std::size_t i = 0; i < net.size(); ++i) {
    LayerRange& lr = layers_[i];
    lr.lo = off;
    for (const auto& p : net.layer(i).params()) {
      MINSGD_CHECK(p.grad->data() == grad_.data() + off,
                   "OverlapAllreducer: ", p.name,
                   " is not bound at its grad_span() offset ", off);
      off += static_cast<std::size_t>(p.grad->numel());
    }
    lr.hi = off;
  }
  bucket_floats_ = bucket_bytes == 0 ? off
                                     : static_cast<std::size_t>(bucket_bytes) / 4;
  const std::size_t buckets =
      (off == 0 || bucket_floats_ == 0)
          ? 0
          : (off + bucket_floats_ - 1) / bucket_floats_;
  bucket_fill_.assign(buckets, 0);
  launched_.assign(buckets, 0);
  handles_.reserve(buckets);
  net_.set_grad_ready_hook(
      [this](std::size_t layer_index, nn::Layer&) { on_layer_ready(layer_index); });
}

OverlapAllreducer::~OverlapAllreducer() { net_.set_grad_ready_hook(nullptr); }

void OverlapAllreducer::begin_iteration() {
  std::fill(bucket_fill_.begin(), bucket_fill_.end(), 0);
  std::fill(launched_.begin(), launched_.end(), 0);
  handles_.clear();
}

std::size_t OverlapAllreducer::bucket_size(std::size_t bucket) const {
  const std::size_t lo = bucket * bucket_floats_;
  return std::min(bucket_floats_, grad_.size() - lo);
}

void OverlapAllreducer::launch(std::size_t bucket) {
  launched_[bucket] = 1;
  handles_.push_back(engine_.allreduce_sum_async(
      grad_.subspan(bucket * bucket_floats_, bucket_size(bucket)), algo_));
}

void OverlapAllreducer::on_layer_ready(std::size_t layer_index) {
  const LayerRange& lr = layers_.at(layer_index);
  if (lr.lo == lr.hi) return;
  // Credit the reported floats to every bucket the layer's range overlaps;
  // a bucket launches the moment its full extent has been credited. Bucket
  // boundaries are pure flat offsets, so a bucket spanning two layers waits
  // for both, and the same parameter bytes are never credited twice (the
  // hook fires once per layer per backward).
  const std::size_t first = lr.lo / bucket_floats_;
  const std::size_t last = (lr.hi - 1) / bucket_floats_;
  for (std::size_t k = first; k <= last; ++k) {
    const std::size_t b_lo = k * bucket_floats_;
    const std::size_t b_hi = b_lo + bucket_size(k);
    bucket_fill_[k] +=
        std::min(lr.hi, b_hi) - std::max(lr.lo, b_lo);
    if (bucket_fill_[k] == bucket_size(k) && !launched_[k]) launch(k);
  }
}

std::span<float> OverlapAllreducer::finish() {
  // Defensive flush: with the hook wired to every top-level layer, all
  // buckets launched during backward. Content, not order, determines each
  // bucket's result, so a late launch is still bit-exact.
  for (std::size_t k = 0; k < launched_.size(); ++k) {
    if (!launched_[k]) launch(k);
  }
  obs::ScopedSpan sp;
  if (obs::tracer().enabled()) {
    sp.start("phase.allreduce.async", obs::cat::kPhase);
    sp.set_bytes(static_cast<std::int64_t>(grad_.size()) * 4);
  }
  const auto t0 = std::chrono::steady_clock::now();
  for (auto& h : handles_) h.wait();  // rethrows the first failure
  exposed_ns_ += std::chrono::duration_cast<std::chrono::nanoseconds>(
                     std::chrono::steady_clock::now() - t0)
                     .count();
  return grad_;
}

}  // namespace minsgd::train

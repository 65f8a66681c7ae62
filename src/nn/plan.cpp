#include "nn/plan.hpp"

#include <atomic>

#include "nn/network.hpp"
#include "obs/metrics.hpp"

namespace minsgd::nn {
namespace {

// Build stamps are process-unique so a layer holding ids from a dead or
// rebuilt plan can never mistake a new plan's context for its own.
std::atomic<std::uint64_t> g_plan_epoch{0};

}  // namespace

void ExecutionPlan::build(Network& net, const Shape& input, bool training) {
  epoch_ = 1 + g_plan_epoch.fetch_add(1, std::memory_order_relaxed);
  input_ = input;
  training_ = training;
  PlanBuilder b(epoch_, training);
  net.plan_forward(b, input);
  if (training) net.plan_backward(b, input);
  steps_ = b.now();
  arena_.build(b.take_items());
  built_ = true;
  ++rebuilds_;

  auto& reg = obs::metrics();
  reg.counter("plan.rebuilds").add(1);
  if (!training) return;
  reg.gauge("plan.arena_bytes").set(static_cast<double>(arena_bytes()));
  reg.gauge("plan.raw_bytes").set(static_cast<double>(raw_bytes()));
  reg.gauge("plan.tensors").set(static_cast<double>(num_tensors()));
  reg.gauge("plan.steps").set(static_cast<double>(steps_));
}

}  // namespace minsgd::nn

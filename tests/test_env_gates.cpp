// Behavioral coverage for every MINSGD_* runtime gate.
//
// Each gate's environment read happens once, at first use, so re-exporting a
// variable mid-process cannot change behavior; what CAN be tested is the
// mechanism the variable feeds — every runtime gate resolves to a
// programmatic setter or constructor argument, and these tests pin that
// behavior down. The env-gate registry check (tools/analyze/analyze.py)
// requires every runtime gate to be exercised by at least one test; this
// file is that anchor for:
//
//   MINSGD_THREADS            -> ComputeContext::default_threads()
//   MINSGD_KERNEL_ISA         -> kernels::force() / active()
//   MINSGD_FLIGHT             -> obs::FlightRecorder::set_enabled()
//   MINSGD_FLIGHT_CAPACITY    -> obs::FlightRecorder(capacity_per_lane)
#include <gtest/gtest.h>

#include "obs/flight.hpp"
#include "obs/trace.hpp"
#include "tensor/context.hpp"
#include "tensor/kernels/dispatch.hpp"

namespace minsgd {
namespace {

// MINSGD_THREADS seeds a default-constructed context's width; whatever the
// environment says, the resolved count must be usable (>= 1).
TEST(EnvGates, ThreadsGateResolvesToUsableWidth) {
  EXPECT_GE(ComputeContext::default_threads(), 1u);
  const ComputeContext ctx;
  EXPECT_EQ(ctx.threads(), ComputeContext::default_threads());
}

// MINSGD_KERNEL_ISA is the env twin of kernels::force(): both pin active().
TEST(EnvGates, KernelIsaForcePinsActiveSelection) {
  const kernels::Isa prev = kernels::active();
  for (kernels::Isa isa : kernels::kAllIsas) {
    if (!kernels::supported(isa)) continue;
    kernels::force(isa);
    EXPECT_EQ(kernels::active(), isa) << kernels::to_string(isa);
  }
  kernels::clear_force();
  EXPECT_EQ(kernels::active(), prev);
}

// MINSGD_FLIGHT / MINSGD_FLIGHT_CAPACITY feed the recorder's enabled flag
// and per-lane ring size. record() itself is unconditional by design — the
// enabled() gate lives at every call site — so the disabled phase models
// the caller contract `if (rec.enabled()) rec.record(...)`.
TEST(EnvGates, FlightGatesControlRecordingAndRingSize) {
  obs::FlightRecorder rec(/*capacity_per_lane=*/32);
  EXPECT_EQ(rec.capacity_per_lane(), 32u);

  obs::set_thread_rank(0);
  rec.set_enabled(false);
  if (rec.enabled()) {
    rec.record(obs::FlightKind::kStep, obs::FlightOp::kNone, 0, 1, 0, 0, 0);
  }
  EXPECT_TRUE(rec.snapshot().empty());

  rec.set_enabled(true);
  for (int i = 0; i < 100; ++i) {
    if (!rec.enabled()) break;
    rec.record(obs::FlightKind::kStep, obs::FlightOp::kNone, 0, 1, 0, 0, i);
  }
  const auto events = rec.snapshot();
  obs::set_thread_rank(-1);
  EXPECT_FALSE(events.empty());
  EXPECT_LE(events.size(), 32u);
}

}  // namespace
}  // namespace minsgd

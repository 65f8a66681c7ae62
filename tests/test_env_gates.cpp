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
//   MINSGD_CONV_DIRECT        -> Conv2d::set_direct_enabled()
//   MINSGD_FLIGHT             -> obs::FlightRecorder::set_enabled()
//   MINSGD_FLIGHT_CAPACITY    -> obs::FlightRecorder(capacity_per_lane)
#include <gtest/gtest.h>

#include <cstring>

#include "nn/conv.hpp"
#include "obs/flight.hpp"
#include "obs/trace.hpp"
#include "tensor/context.hpp"
#include "tensor/kernels/dispatch.hpp"
#include "tensor/rng.hpp"
#include "tensor/tensor.hpp"

namespace minsgd {
namespace {

// MINSGD_THREADS seeds the process-wide context width; whatever the
// environment says, the resolved count must be usable (>= 1).
TEST(EnvGates, ThreadsGateResolvesToUsableWidth) {
  EXPECT_GE(ComputeContext::default_threads(), 1u);
  EXPECT_GE(ComputeContext::default_ctx().threads(), 1u);
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

// MINSGD_CONV_DIRECT seeds Conv2d::direct_enabled(); flipping the toggle
// must not change a single output bit (the direct path's whole contract).
// Geometry is chosen so the im2col sgemm takes the packed microkernel path
// (kdim=288, spatial=256, out_c=48), where bytewise agreement is the pinned
// contract (ConvOracle.Direct3x3BitIdenticalToIm2colAtPackedSizes).
TEST(EnvGates, ConvDirectGateIsBitInvisible) {
  const bool prev = nn::Conv2d::direct_enabled();
  nn::Conv2d conv(32, 48, 3, 1, 1);
  Rng rng(29);
  conv.init(rng);
  Tensor x({2, 32, 16, 16});
  rng.fill_normal(x.span(), 0.0f, 1.0f);

  Tensor y_off, y_on;
  nn::Conv2d::set_direct_enabled(false);
  conv.forward(x, y_off, /*training=*/false);
  nn::Conv2d::set_direct_enabled(true);
  conv.forward(x, y_on, /*training=*/false);
  nn::Conv2d::set_direct_enabled(prev);

  ASSERT_EQ(y_off.shape(), y_on.shape());
  EXPECT_EQ(std::memcmp(y_off.data(), y_on.data(),
                        static_cast<std::size_t>(y_off.numel()) *
                            sizeof(float)),
            0);
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

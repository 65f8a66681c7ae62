// ExecutionPlan / TensorArena: layout, liveness aliasing, rebuild triggers,
// planned-vs-legacy bit-identity, and the O(1) steady-state allocation
// guarantee the tensor.allocs counter pins down.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "nn/activation.hpp"
#include "nn/conv.hpp"
#include "nn/dropout.hpp"
#include "nn/linear.hpp"
#include "nn/models.hpp"
#include "nn/network.hpp"
#include "nn/norm.hpp"
#include "nn/plan.hpp"
#include "nn/pool.hpp"
#include "nn/residual.hpp"
#include "obs/metrics.hpp"
#include "tensor/arena.hpp"
#include "tensor/context.hpp"

namespace minsgd {
namespace {

bool bits_equal(std::span<const float> a, std::span<const float> b) {
  if (a.size() != b.size()) return false;
  if (a.empty()) return true;
  return std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

Tensor random_tensor(const Shape& shape, std::uint64_t seed) {
  Tensor t(shape);
  Rng rng(seed);
  for (auto& v : t.span()) v = static_cast<float>(rng.normal()) * 0.5f;
  return t;
}

/// RAII guard so a test cannot leak a flipped process-wide plan gate.
struct PlanGateGuard {
  bool enabled = nn::ExecutionPlan::enabled();
  bool recompute = nn::ExecutionPlan::recompute_default();
  ~PlanGateGuard() {
    nn::ExecutionPlan::set_enabled(enabled);
    nn::ExecutionPlan::set_recompute_default(recompute);
  }
};

// -- TensorArena ------------------------------------------------------------

TEST(TensorArena, DisjointIntervalsAlias) {
  TensorArena arena;
  // Two same-size tensors with non-overlapping lifetimes share bytes.
  arena.build({{Shape{64}, 64, 1, 2}, {Shape{64}, 64, 3, 4}});
  EXPECT_EQ(arena.offset(0), arena.offset(1));
  EXPECT_EQ(arena.total_floats(), 64);
  EXPECT_EQ(arena.raw_floats(), 128);
}

TEST(TensorArena, OverlappingIntervalsDoNotAlias) {
  TensorArena arena;
  arena.build({{Shape{64}, 64, 1, 3}, {Shape{64}, 64, 3, 4}});
  // Inclusive intervals touch at step 3, so the ranges must be disjoint.
  const auto lo = std::min(arena.offset(0), arena.offset(1));
  const auto hi = std::max(arena.offset(0), arena.offset(1));
  EXPECT_GE(hi - lo, 64);
  EXPECT_GE(arena.total_floats(), 128);
}

TEST(TensorArena, OffsetsAreAligned) {
  TensorArena arena;
  arena.build({{Shape{3}, 3, 1, 5},
               {Shape{17}, 17, 1, 5},
               {Shape{33}, 33, 2, 3},
               {Shape{1}, 1, 4, 6}});
  for (std::size_t i = 0; i < arena.size(); ++i) {
    EXPECT_EQ(arena.offset(i) % 16, 0) << "item " << i;
  }
}

TEST(TensorArena, BestFitReusesSmallestSufficientGap) {
  TensorArena arena;
  // Three long-lived anchors with two dead items sandwiched between them.
  // Placement is largest-first, so the layout is
  //   [A1 256][D1 128][A2 96][D2 64][A3 48]
  // and at step 3 both D1's and D2's slots are enclosed gaps. The step-3
  // tensor fits either; best-fit must take the smaller one (D2's).
  arena.build({{Shape{256}, 256, 1, 9},   // 0: anchor A1, live throughout
               {Shape{128}, 128, 1, 2},   // 1: D1, dies at step 3
               {Shape{96}, 96, 1, 9},     // 2: anchor A2
               {Shape{64}, 64, 1, 2},     // 3: D2, dies at step 3
               {Shape{48}, 48, 1, 9},     // 4: anchor A3
               {Shape{32}, 32, 3, 4}});   // 5: candidate, fits both gaps
  EXPECT_EQ(arena.offset(5), arena.offset(3));  // smaller gap wins
  EXPECT_NE(arena.offset(5), arena.offset(1));
  EXPECT_EQ(arena.total_floats(), 592);  // high-water mark: A3 ends at 592
  EXPECT_EQ(arena.raw_floats(), 624);    // sum of all six items
}

TEST(TensorArena, ViewsBindShapesAndZeroFill) {
  TensorArena arena;
  arena.build({{Shape{2, 3}, 6, 1, 2}, {Shape{4}, 4, 3, 3}});
  EXPECT_EQ(arena.tensor(0).shape(), Shape({2, 3}));
  EXPECT_EQ(arena.tensor(1).shape(), Shape({4}));
  EXPECT_TRUE(arena.tensor(0).bound());
  for (float v : arena.tensor(0).span()) EXPECT_EQ(v, 0.0f);
  // Writes through one view land in the shared block.
  arena.tensor(0).fill(2.0f);
  EXPECT_EQ(arena.tensor(0)[5], 2.0f);
}

TEST(TensorArena, ScratchCapacityExceedsShape) {
  TensorArena arena;
  // Chunk-strided scratch: elems > shape.numel() reserves the full block.
  arena.build({{Shape{8}, 64, 1, 1}});
  EXPECT_EQ(arena.tensor(0).shape().numel(), 8);
  EXPECT_EQ(arena.tensor(0).bound_capacity(), 64);
  EXPECT_EQ(arena.total_floats(), 64);
}

// -- PlanBuilder ------------------------------------------------------------

TEST(PlanBuilder, TimelineAndExtend) {
  nn::PlanOptions opts;
  nn::PlanBuilder b(42, opts);
  EXPECT_EQ(b.now(), 0);
  EXPECT_EQ(b.tick(), 1);
  const auto id = b.add(Shape{10}, 1, 1);
  b.tick();
  b.extend(id, 2);
  b.extend(nn::kNoTensor, 99);  // must be a no-op, not a crash
  const auto items = b.take_items();
  ASSERT_EQ(items.size(), 1u);
  EXPECT_EQ(items[0].def, 1);
  EXPECT_EQ(items[0].last, 2);
  EXPECT_EQ(b.epoch(), 42u);
}

// -- ExecutionPlan ----------------------------------------------------------

std::unique_ptr<nn::Network> small_resnetish() {
  auto net = std::make_unique<nn::Network>("planned");
  net->emplace<nn::Conv2d>(3, 8, 3, 1, 1);
  net->emplace<nn::BatchNorm2d>(8);
  net->emplace<nn::ReLU>();
  auto branch = std::make_unique<nn::Network>("branch");
  branch->emplace<nn::Conv2d>(8, 8, 3, 1, 1);
  branch->emplace<nn::BatchNorm2d>(8);
  branch->emplace<nn::ReLU>();
  branch->emplace<nn::Conv2d>(8, 8, 3, 1, 1);
  branch->emplace<nn::BatchNorm2d>(8);
  net->add(std::make_unique<nn::ResidualBlock>(std::move(branch)));
  net->emplace<nn::MaxPool2d>(2, 2);
  net->emplace<nn::Flatten>();
  net->emplace<nn::Dropout>(0.25f);
  net->emplace<nn::Linear>(8 * 6 * 6, 4);
  return net;
}

TEST(ExecutionPlan, RebuildTriggers) {
  auto net = small_resnetish();
  nn::ExecutionPlan plan;
  EXPECT_FALSE(plan.built());
  nn::PlanOptions opts;
  EXPECT_TRUE(plan.ensure(*net, Shape({4, 3, 12, 12}), opts));
  EXPECT_TRUE(plan.built());
  const auto epoch1 = plan.epoch();
  EXPECT_GT(epoch1, 0u);
  // Same geometry: no rebuild, same epoch.
  EXPECT_FALSE(plan.ensure(*net, Shape({4, 3, 12, 12}), opts));
  EXPECT_EQ(plan.epoch(), epoch1);
  // Batch change: rebuild with a fresh process-unique epoch.
  EXPECT_TRUE(plan.ensure(*net, Shape({8, 3, 12, 12}), opts));
  EXPECT_GT(plan.epoch(), epoch1);
  EXPECT_EQ(plan.rebuilds(), 2);
  // Option change: rebuild.
  opts.recompute_cheap = !opts.recompute_cheap;
  EXPECT_TRUE(plan.ensure(*net, Shape({8, 3, 12, 12}), opts));
  EXPECT_EQ(plan.rebuilds(), 3);
}

TEST(ExecutionPlan, ArenaAliasingSavesMemory) {
  auto net = small_resnetish();
  nn::ExecutionPlan plan;
  nn::PlanOptions opts;
  opts.recompute_cheap = false;
  plan.ensure(*net, Shape({8, 3, 12, 12}), opts);
  // Liveness aliasing must beat allocate-everything-forever layout.
  EXPECT_LT(plan.arena_bytes(), plan.raw_bytes());
}

TEST(ExecutionPlan, RecomputeCheapShrinksArena) {
  auto net = small_resnetish();
  nn::ExecutionPlan keep, recompute;
  nn::PlanOptions kopts, ropts;
  kopts.recompute_cheap = false;
  ropts.recompute_cheap = true;
  keep.ensure(*net, Shape({8, 3, 12, 12}), kopts);
  const auto kept_bytes = keep.arena_bytes();
  recompute.ensure(*net, Shape({8, 3, 12, 12}), ropts);
  // Conv outputs feeding BN die at their last forward read; the arena must
  // get strictly smaller on this model.
  EXPECT_LT(recompute.arena_bytes(), kept_bytes);
}

/// Runs forward + backward on `net` and returns (y, dx, flat grads).
struct NetRun {
  std::vector<float> y, dx, grads;
};

NetRun run_net(nn::Network& net, const Tensor& x, const ComputeContext& ctx,
               nn::ExecutionPlan* plan) {
  net.zero_grad();
  Tensor y, dx;
  if (plan != nullptr) {
    auto pc = plan->context(net, x.shape());
    net.forward(x, y, /*training=*/true, ctx, &pc);
    const Tensor dy = random_tensor(y.shape(), 11);
    net.backward(x, y, dy, dx, ctx, &pc);
  } else {
    net.forward(x, y, /*training=*/true, ctx);
    const Tensor dy = random_tensor(y.shape(), 11);
    net.backward(x, y, dy, dx, ctx);
  }
  NetRun out;
  out.y.assign(y.span().begin(), y.span().end());
  out.dx.assign(dx.span().begin(), dx.span().end());
  const std::span<const float> g = net.grad_span();
  out.grads.assign(g.begin(), g.end());
  return out;
}

TEST(ExecutionPlan, PlannedMatchesLegacyBitwise) {
  const Tensor x = random_tensor(Shape({4, 3, 12, 12}), 7);
  for (const bool recompute : {false, true}) {
    for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
      const ComputeContext ctx(threads);
      // Fresh nets per mode: dropout streams must start identically.
      auto legacy_net = small_resnetish();
      auto planned_net = small_resnetish();
      Rng r1(123), r2(123);
      legacy_net->init(r1);
      planned_net->init(r2);
      const NetRun legacy = run_net(*legacy_net, x, ctx, nullptr);
      nn::ExecutionPlan plan;
      nn::PlanOptions opts;
      opts.recompute_cheap = recompute;
      plan.ensure(*planned_net, x.shape(), opts);
      const NetRun planned = run_net(*planned_net, x, ctx, &plan);
      EXPECT_TRUE(bits_equal(legacy.y, planned.y))
          << "y differs, t=" << threads << " recompute=" << recompute;
      EXPECT_TRUE(bits_equal(legacy.dx, planned.dx))
          << "dx differs, t=" << threads << " recompute=" << recompute;
      EXPECT_TRUE(bits_equal(legacy.grads, planned.grads))
          << "grads differ, t=" << threads << " recompute=" << recompute;
    }
  }
}

TEST(ExecutionPlan, ForeignContextFallsBackToLegacy) {
  // A context built for net A handed to net B must not touch B's ids — B
  // runs the legacy path and still produces the right bytes.
  const Tensor x = random_tensor(Shape({2, 3, 12, 12}), 3);
  const ComputeContext ctx(2);
  auto net_a = small_resnetish();
  auto net_b = small_resnetish();
  auto net_ref = small_resnetish();
  Rng ra(9), rb(9), rr(9);
  net_a->init(ra);
  net_b->init(rb);
  net_ref->init(rr);
  nn::ExecutionPlan plan_a;
  auto pc = plan_a.context(*net_a, x.shape());
  Tensor yb, dxb, yr, dxr;
  net_b->forward(x, yb, /*training=*/true, ctx, &pc);  // foreign context
  net_ref->forward(x, yr, /*training=*/true, ctx);
  const Tensor dy = random_tensor(yb.shape(), 5);
  net_b->backward(x, yb, dy, dxb, ctx, &pc);
  net_ref->backward(x, yr, dy, dxr, ctx);
  EXPECT_TRUE(bits_equal(yb.span(), yr.span()));
  EXPECT_TRUE(bits_equal(dxb.span(), dxr.span()));
}

TEST(ExecutionPlan, GateOffYieldsLegacyContext) {
  PlanGateGuard guard;
  nn::ExecutionPlan::set_enabled(false);
  auto net = small_resnetish();
  Rng r(1);
  net->init(r);
  nn::ExecutionPlan plan;
  auto pc = plan.context(*net, Shape({2, 3, 12, 12}));
  EXPECT_FALSE(pc.planned());
  EXPECT_FALSE(plan.built());
}

TEST(ExecutionPlan, SteadyStateAllocsAreZero) {
  // The acceptance bar: with a plan, iterating at a fixed geometry performs
  // no tensor allocations at all after warmup — tensor.allocs is flat.
  auto net = small_resnetish();
  Rng r(77);
  net->init(r);
  const ComputeContext ctx(4);
  const Tensor x = random_tensor(Shape({4, 3, 12, 12}), 7);
  nn::ExecutionPlan plan;
  Tensor y, dx, dy;
  auto iterate = [&] {
    net->zero_grad();
    auto pc = plan.context(*net, x.shape());
    net->forward(x, y, /*training=*/true, ctx, &pc);
    dy.resize(y.shape());
    dy.fill(0.5f);
    net->backward(x, y, dy, dx, ctx, &pc);
  };
  iterate();  // warmup: builds the plan, sizes y/dx/dy and legacy caches
  iterate();  // second pass settles resize-grown capacities
  auto& allocs = obs::metrics().counter("tensor.allocs");
  const auto before = allocs.value();
  for (int i = 0; i < 5; ++i) iterate();
  EXPECT_EQ(allocs.value(), before) << "planned steady state must not allocate";
}

TEST(ExecutionPlan, SteadyStateAllocsAreZeroOnFusedConvs) {
  // Same bar on tiny-resnet, whose 3x3 convs take the fused backward
  // (small_resnetish's convs are below kSmallGemmFlops and stay im2col).
  auto net = nn::tiny_resnet(/*blocks_per_stage=*/1, /*classes=*/10,
                             /*resolution=*/16);
  Rng r(78);
  net->init(r);
  const ComputeContext ctx(4);
  const Tensor x = random_tensor(Shape({4, 3, 16, 16}), 8);
  nn::ExecutionPlan plan;
  Tensor y, dx, dy;
  auto iterate = [&] {
    net->zero_grad();
    auto pc = plan.context(*net, x.shape());
    net->forward(x, y, /*training=*/true, ctx, &pc);
    dy.resize(y.shape());
    dy.fill(0.5f);
    net->backward(x, y, dy, dx, ctx, &pc);
  };
  iterate();
  iterate();
  auto& allocs = obs::metrics().counter("tensor.allocs");
  const auto before = allocs.value();
  for (int i = 0; i < 3; ++i) iterate();
  EXPECT_EQ(allocs.value(), before) << "planned steady state must not allocate";
}

TEST(ExecutionPlan, LegacyPathAllocatesPerIteration) {
  // Control for the test above: without a plan the conv scratch is
  // allocated per call, so the counter must keep moving.
  auto net = small_resnetish();
  Rng r(77);
  net->init(r);
  const ComputeContext ctx(4);
  const Tensor x = random_tensor(Shape({4, 3, 12, 12}), 7);
  Tensor y, dx, dy;
  auto iterate = [&] {
    net->zero_grad();
    net->forward(x, y, /*training=*/true, ctx);
    dy.resize(y.shape());
    dy.fill(0.5f);
    net->backward(x, y, dy, dx, ctx);
  };
  iterate();
  iterate();
  auto& allocs = obs::metrics().counter("tensor.allocs");
  const auto before = allocs.value();
  iterate();
  EXPECT_GT(allocs.value(), before);
}

TEST(ExecutionPlan, TinyResnetPlans) {
  // The real proxy model the benches use: plan build must cover projection
  // shortcuts and strided stages, and aliasing must pay on a deep trunk.
  auto net = nn::tiny_resnet(/*blocks_per_stage=*/2, /*classes=*/10,
                             /*resolution=*/16);
  nn::ExecutionPlan plan;
  nn::PlanOptions opts;
  plan.ensure(*net, Shape({8, 3, 16, 16}), opts);
  EXPECT_LT(plan.arena_bytes(), plan.raw_bytes() / 2)
      << "deep residual trunk should alias at least 2x";
  const Tensor x = random_tensor(Shape({8, 3, 16, 16}), 13);
  const ComputeContext ctx(4);
  auto legacy_net = nn::tiny_resnet(2, 10, 16);
  Rng r1(5), r2(5);
  net->init(r1);
  legacy_net->init(r2);
  const NetRun planned = run_net(*net, x, ctx, &plan);
  const NetRun legacy = run_net(*legacy_net, x, ctx, nullptr);
  EXPECT_TRUE(bits_equal(legacy.y, planned.y));
  EXPECT_TRUE(bits_equal(legacy.dx, planned.dx));
  EXPECT_TRUE(bits_equal(legacy.grads, planned.grads));
}

/// Restores the process-wide conv lowering gate on scope exit.
struct ConvDirectGuard {
  bool prev = nn::Conv2d::direct_enabled();
  ~ConvDirectGuard() { nn::Conv2d::set_direct_enabled(prev); }
};

TEST(ExecutionPlan, FusedConvsReserveNoColumnBuffers) {
  ConvDirectGuard guard;
  // The fused backward needs one L2-sized dcol row block per chunk instead
  // of whole col and dcol matrices, so tiny-resnet's arena shrinks.
  auto net = nn::tiny_resnet(/*blocks_per_stage=*/2, /*classes=*/10,
                             /*resolution=*/16);
  const Shape input({8, 3, 16, 16});
  nn::ExecutionPlan direct, reference;
  nn::Conv2d::set_direct_enabled(true);
  direct.ensure(*net, input);
  nn::Conv2d::set_direct_enabled(false);
  reference.ensure(*net, input);
  EXPECT_LT(direct.arena_bytes(), reference.arena_bytes());

  // tiny-resnet's conv shapes at their input planes: every fused backward
  // plans without col/dcol; the im2col ones (the stem and the 1x1
  // projections, all at or below kSmallGemmFlops) keep them.
  struct Case {
    std::int64_t in_c, out_c, k, stride, pad, hw;
    bool fused;
  };
  const Case cases[] = {
      {3, 16, 3, 1, 1, 16, false}, {16, 16, 3, 1, 1, 16, true},
      {16, 32, 3, 2, 1, 16, true}, {16, 32, 1, 2, 0, 16, false},
      {32, 32, 3, 1, 1, 8, true},  {32, 64, 3, 2, 1, 8, true},
      {32, 64, 1, 2, 0, 8, false}, {64, 64, 3, 1, 1, 4, true}};
  for (const bool on : {true, false}) {
    nn::Conv2d::set_direct_enabled(on);
    for (const Case& c : cases) {
      nn::Conv2d conv(c.in_c, c.out_c, c.k, c.stride, c.pad, /*bias=*/false);
      const Shape in({8, c.in_c, c.hw, c.hw});
      nn::PlanBuilder builder(1, nn::PlanOptions{});
      conv.plan_backward(builder, in);
      const bool fused = on && c.fused;
      EXPECT_EQ(conv.lowering(in, kernels::ConvPass::kBackward) ==
                    kernels::ConvLowering::kFused,
                fused)
          << c.in_c << "->" << c.out_c << " k" << c.k << " s" << c.stride;
      EXPECT_EQ(conv.plans_backward_columns(), !fused)
          << c.in_c << "->" << c.out_c << " k" << c.k << " s" << c.stride;
    }
  }
}

}  // namespace
}  // namespace minsgd

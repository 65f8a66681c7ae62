// ExecutionPlan / TensorArena: layout, liveness aliasing, rebuild triggers,
// planned-vs-reference-walk bit-identity (tests/reference_walk.hpp), the
// forward-only eval plan, and the O(1) steady-state allocation guarantee
// the tensor.allocs counter pins down.
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
#include "optim/sgd.hpp"
#include "reference_walk.hpp"
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
  nn::PlanBuilder b(42, /*training=*/true);
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
  // The network plans itself from its top-level forward, keyed on (input
  // shape, training).
  auto net = small_resnetish();
  Rng r(1);
  net->init(r);
  const ComputeContext ctx(1);
  const nn::ExecutionPlan& plan = net->plan();
  Tensor y;
  const auto forward = [&](const Shape& shape, bool training) {
    net->forward(random_tensor(shape, 1), y, training, ctx);
  };
  EXPECT_FALSE(plan.built());
  forward(Shape({4, 3, 12, 12}), true);
  EXPECT_TRUE(plan.built());
  const auto epoch1 = plan.epoch();
  EXPECT_GT(epoch1, 0u);
  // Same geometry: no rebuild, same epoch.
  forward(Shape({4, 3, 12, 12}), true);
  EXPECT_EQ(plan.epoch(), epoch1);
  // Batch change: rebuild with a fresh process-unique epoch.
  forward(Shape({8, 3, 12, 12}), true);
  EXPECT_GT(plan.epoch(), epoch1);
  EXPECT_EQ(plan.rebuilds(), 2);
  // Training-flag change: rebuild, forward only.
  forward(Shape({8, 3, 12, 12}), false);
  EXPECT_EQ(plan.rebuilds(), 3);
  EXPECT_FALSE(plan.training());
  // Another plan re-walked the network, re-pointing its ids: rebuild.
  nn::ExecutionPlan other;
  other.build(*net, Shape({8, 3, 12, 12}), /*training=*/false);
  forward(Shape({8, 3, 12, 12}), false);
  EXPECT_EQ(plan.rebuilds(), 4);
}

TEST(ExecutionPlan, ArenaAliasingSavesMemory) {
  auto net = small_resnetish();
  nn::ExecutionPlan plan;
  plan.build(*net, Shape({8, 3, 12, 12}), /*training=*/true);
  // Liveness aliasing must beat allocate-everything-forever layout.
  EXPECT_LT(plan.arena_bytes(), plan.raw_bytes());
}

TEST(ExecutionPlan, PlannedMatchesLegacyBitwise) {
  // The baseline is the reference walk (tests/reference_walk.hpp): every
  // leaf layer standalone, no plan. small_resnetish carries an identity
  // residual block, BN and dropout.
  testing::expect_planned_matches_reference([] { return small_resnetish(); },
                                            Shape({4, 3, 12, 12}));
}

TEST(ExecutionPlan, ForeignContextFallsBackToLegacy) {
  // A context built for net A handed to net B must not touch B's ids — B
  // runs on its own plan and still produces the reference walk's bytes.
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
  plan_a.build(*net_a, x.shape(), /*training=*/true);
  nn::PlanContext pc(&plan_a);
  Tensor yb, dxb, yr, dxr;
  net_b->forward(x, yb, /*training=*/true, ctx, &pc);  // foreign context
  EXPECT_TRUE(net_b->plan().built());
  testing::ReferenceWalk walk;
  walk.forward(*net_ref, x, yr, /*training=*/true, ctx);
  const Tensor dy = random_tensor(yb.shape(), 5);
  net_b->backward(x, yb, dy, dxb, ctx, &pc);
  walk.backward(*net_ref, x, yr, dy, dxr, ctx);
  EXPECT_TRUE(bits_equal(yb.span(), yr.span()));
  EXPECT_TRUE(bits_equal(dxb.span(), dxr.span()));
  EXPECT_TRUE(bits_equal(net_b->grad_span(), net_ref->grad_span()));
}

TEST(ExecutionPlan, SteadyStateAllocsAreZero) {
  // The acceptance bar: iterating at a fixed geometry performs no tensor
  // allocations at all after warmup — tensor.allocs is flat.
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
  iterate();  // warmup: builds the plan, sizes y/dx/dy and layer caches
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
  for (int i = 0; i < 3; ++i) iterate();
  EXPECT_EQ(allocs.value(), before) << "planned steady state must not allocate";
}

TEST(ExecutionPlan, TinyResnetPlans) {
  // The real proxy model the benches use: plan build must cover projection
  // shortcuts and strided stages, and aliasing must pay on a deep trunk.
  auto net = nn::tiny_resnet(/*blocks_per_stage=*/2, /*classes=*/10,
                             /*resolution=*/16);
  nn::ExecutionPlan plan;
  plan.build(*net, Shape({8, 3, 16, 16}), /*training=*/true);
  EXPECT_LT(plan.arena_bytes(), plan.raw_bytes() / 2)
      << "deep residual trunk should alias at least 2x";
  testing::expect_planned_matches_reference(
      [] { return nn::tiny_resnet(2, 10, 16); }, Shape({8, 3, 16, 16}));
}

/// A network holding one residual block.
std::unique_ptr<nn::Network> one_block(nn::LayerPtr block) {
  auto net = std::make_unique<nn::Network>("one-block");
  net->add(std::move(block));
  return net;
}

TEST(ExecutionPlan, ModelResidualBlocksMatchReference) {
  // The zoo's blocks, fused BN+ReLU included, with identity and projection
  // shortcuts: the planned block reads its branch's and shortcut's last
  // arena activations in place and must still produce the walk's bytes.
  testing::expect_planned_matches_reference(
      [] { return one_block(nn::bottleneck(16, 4, 1)); },
      Shape({2, 16, 8, 8}));
  testing::expect_planned_matches_reference(
      [] { return one_block(nn::bottleneck(8, 4, 2)); }, Shape({2, 8, 9, 9}));
  testing::expect_planned_matches_reference(
      [] { return one_block(nn::basic_block(8, 8, 1)); },
      Shape({2, 8, 8, 8}));
  testing::expect_planned_matches_reference(
      [] { return one_block(nn::basic_block(8, 16, 2)); },
      Shape({2, 8, 8, 8}));
}

/// nn::bottleneck(in_c, mid_c, 1) with identity shortcut, spelled with
/// separate bn and relu layers.
std::unique_ptr<nn::Network> unfused_bottleneck(std::int64_t in_c,
                                                std::int64_t mid_c) {
  auto branch = std::make_unique<nn::Network>("bottleneck");
  branch->emplace<nn::Conv2d>(in_c, mid_c, 1, 1, 0, /*bias=*/false);
  branch->emplace<nn::BatchNorm2d>(mid_c);
  branch->emplace<nn::ReLU>();
  branch->emplace<nn::Conv2d>(mid_c, mid_c, 3, 1, 1, /*bias=*/false);
  branch->emplace<nn::BatchNorm2d>(mid_c);
  branch->emplace<nn::ReLU>();
  branch->emplace<nn::Conv2d>(mid_c, in_c, 1, 1, 0, /*bias=*/false);
  branch->emplace<nn::BatchNorm2d>(in_c);
  return one_block(std::make_unique<nn::ResidualBlock>(std::move(branch)));
}

TEST(ExecutionPlan, FusedBnReluDropsPreActivationSameBytes) {
  // The fused layer has the pair's parameters in the pair's order, so both
  // nets initialize identically and must train to the same bytes — while
  // the fused plan holds two fewer tensors (the pre-activations) and less
  // raw memory.
  const Shape in({2, 16, 8, 8});
  const ComputeContext ctx(2);
  const testing::WalkTrace fused = testing::trace_steps(
      [] { return one_block(nn::bottleneck(16, 4, 1)); },
      random_tensor(in, 5), ctx, /*reference=*/false);
  const testing::WalkTrace pair = testing::trace_steps(
      [] { return unfused_bottleneck(16, 4); }, random_tensor(in, 5), ctx,
      /*reference=*/false);
  EXPECT_TRUE(testing::same_bits(fused.y, pair.y));
  EXPECT_TRUE(testing::same_bits(fused.dx, pair.dx));
  EXPECT_TRUE(testing::same_bits(fused.grads, pair.grads));
  EXPECT_TRUE(testing::same_bits(fused.weights, pair.weights));
  EXPECT_TRUE(testing::same_bits(fused.buffers, pair.buffers));
  EXPECT_TRUE(testing::same_bits(fused.eval_y, pair.eval_y));

  auto fused_net = one_block(nn::bottleneck(16, 4, 1));
  auto pair_net = unfused_bottleneck(16, 4);
  nn::ExecutionPlan fused_plan, pair_plan;
  fused_plan.build(*fused_net, in, /*training=*/true);
  pair_plan.build(*pair_net, in, /*training=*/true);
  EXPECT_EQ(fused_plan.num_tensors() + 4, pair_plan.num_tensors())
      << "each removed relu drops its activation and its gradient";
  EXPECT_LT(fused_plan.raw_bytes(), pair_plan.raw_bytes());
}

/// One training step (forward, backward, SGD update) on `net` at `x`.
void train_step(nn::Network& net, const Tensor& x, const ComputeContext& ctx) {
  Tensor y, dx;
  net.zero_grad();
  net.forward(x, y, /*training=*/true, ctx);
  const Tensor dy = random_tensor(y.shape(), 21);
  net.backward(x, y, dy, dx, ctx);
  auto params = net.params();
  optim::Sgd sgd;
  sgd.step(params, 0.05, ctx);
}

TEST(ExecutionPlan, EvalForwardIsPlannedAndForwardOnly) {
  auto net = nn::tiny_resnet(/*blocks_per_stage=*/1, /*classes=*/10,
                             /*resolution=*/16);
  Rng r(79);
  net->init(r);
  const ComputeContext ctx(2);
  const Tensor x = random_tensor(Shape({8, 3, 16, 16}), 9);
  train_step(*net, x, ctx);
  ASSERT_TRUE(net->plan().training());
  const auto train_arena = net->plan().arena_bytes();
  Tensor y;
  net->forward(x, y, /*training=*/false, ctx);  // builds the eval plan
  auto& allocs = obs::metrics().counter("tensor.allocs");
  const auto before = allocs.value();
  net->forward(x, y, /*training=*/false, ctx);
  EXPECT_EQ(allocs.value(), before) << "a planned eval forward allocates";
  EXPECT_FALSE(net->plan().training());
  EXPECT_LT(net->plan().arena_bytes(), train_arena)
      << "a forward-only plan must not hold backward's activations";
  const Tensor dy = random_tensor(y.shape(), 4);
  Tensor dx;
  EXPECT_THROW(net->backward(x, y, dy, dx, ctx), std::logic_error);
}

TEST(ExecutionPlan, EvalBuildLeavesTrainingGauges) {
  // plan.* gauges describe the training arena; an eval (forward-only)
  // build only counts in plan.rebuilds.
  auto net = small_resnetish();
  Rng r(80);
  net->init(r);
  const ComputeContext ctx(2);
  const Tensor x = random_tensor(Shape({4, 3, 12, 12}), 10);
  train_step(*net, x, ctx);
  auto& reg = obs::metrics();
  const char* gauges[] = {"plan.arena_bytes", "plan.raw_bytes",
                          "plan.tensors", "plan.steps"};
  std::vector<double> trained;
  for (const char* g : gauges) trained.push_back(reg.gauge(g).value());
  EXPECT_EQ(trained[0], static_cast<double>(net->plan().arena_bytes()));
  const auto rebuilds = reg.counter("plan.rebuilds").value();
  Tensor y;
  net->forward(x, y, /*training=*/false, ctx);
  EXPECT_EQ(reg.counter("plan.rebuilds").value(), rebuilds + 1);
  ASSERT_NE(static_cast<double>(net->plan().arena_bytes()), trained[0]);
  for (std::size_t i = 0; i < trained.size(); ++i) {
    EXPECT_EQ(reg.gauge(gauges[i]).value(), trained[i]) << gauges[i];
  }
}

TEST(ExecutionPlan, FusedConvsReserveNoColumnBuffers) {
  // The fused backward needs one L2-sized dcol row block per chunk instead
  // of whole col and dcol matrices. tiny-resnet's conv shapes at their
  // input planes: every fused backward plans without col/dcol; the im2col
  // ones (the stem and the 1x1 projections, all at or below
  // kSmallGemmFlops) keep them.
  struct Case {
    std::int64_t in_c, out_c, k, stride, pad, hw;
    bool fused;
  };
  const Case cases[] = {
      {3, 16, 3, 1, 1, 16, false}, {16, 16, 3, 1, 1, 16, true},
      {16, 32, 3, 2, 1, 16, true}, {16, 32, 1, 2, 0, 16, false},
      {32, 32, 3, 1, 1, 8, true},  {32, 64, 3, 2, 1, 8, true},
      {32, 64, 1, 2, 0, 8, false}, {64, 64, 3, 1, 1, 4, true}};
  for (const Case& c : cases) {
    nn::Conv2d conv(c.in_c, c.out_c, c.k, c.stride, c.pad, /*bias=*/false);
    const Shape in({8, c.in_c, c.hw, c.hw});
    nn::PlanBuilder builder(1, /*training=*/true);
    conv.plan_backward(builder, in);
    EXPECT_EQ(conv.lowering(in, kernels::ConvPass::kBackward) ==
                  kernels::ConvLowering::kFused,
              c.fused)
        << c.in_c << "->" << c.out_c << " k" << c.k << " s" << c.stride;
    EXPECT_EQ(conv.plans_backward_columns(), !c.fused)
        << c.in_c << "->" << c.out_c << " k" << c.k << " s" << c.stride;
  }
}

}  // namespace
}  // namespace minsgd

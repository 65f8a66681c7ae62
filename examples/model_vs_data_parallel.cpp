// Model parallelism vs data parallelism (paper Figure 2): why everyone
// scaling ImageNet — including this paper — chose data parallelism.
//
//   $ ./model_vs_data_parallel [world]
//
// Runs one training step of a fully connected layer both ways on the same
// simulated cluster and compares the bytes each scheme puts on the wire:
//   * model-parallel: the layer's weights are partitioned (Figure 2(b));
//     every forward allgathers activations, every backward allreduces
//     input gradients — traffic scales with the *batch*.
//   * data-parallel: the batch is partitioned (Figure 2(a)); one gradient
//     allreduce per step — traffic scales with the *model*.
// For DNN-sized layers and ImageNet-sized batches, the data-parallel side
// wins unless the layer is enormous relative to the activations, which is
// exactly the paper's conclusion.
#include <cstdio>
#include <cstdlib>

#include "comm/cluster.hpp"
#include "comm/model_parallel.hpp"
#include "nn/init.hpp"
#include "nn/linear.hpp"
#include "tensor/ops.hpp"
#include "tensor/rng.hpp"

using namespace minsgd;

namespace {

comm::TrafficStats model_parallel_step(int world, std::int64_t in,
                                       std::int64_t out, std::int64_t batch) {
  Tensor x({batch, in}), dy({batch, out});
  Rng rng(3);
  rng.fill_normal(x.span(), 0.0f, 1.0f);
  rng.fill_normal(dy.span(), 0.0f, 0.1f);
  comm::SimCluster cluster(world);
  cluster.run([&](comm::Communicator& comm) {
    comm::ShardedLinear layer(comm, in, out);
    layer.init(7);
    Tensor y, dx;
    layer.forward(x, y);
    layer.backward(x, dy, dx);
  });
  return cluster.total_traffic();
}

comm::TrafficStats data_parallel_step(int world, std::int64_t in,
                                      std::int64_t out, std::int64_t batch) {
  Tensor x({batch, in}), dy({batch, out});
  Rng rng(3);
  rng.fill_normal(x.span(), 0.0f, 1.0f);
  rng.fill_normal(dy.span(), 0.0f, 0.1f);
  comm::SimCluster cluster(world);
  cluster.run([&](comm::Communicator& comm) {
    nn::Linear layer(in, out);
    Rng lrng(7);
    nn::he_normal(layer.weight(), in, lrng);
    layer.bias().zero();
    const std::int64_t local = batch / world;
    Tensor xl({local, in}), dyl({local, out});
    copy(std::span<const float>(x.data() + comm.rank() * local * in,
                                static_cast<std::size_t>(local * in)),
         xl.span());
    copy(std::span<const float>(dy.data() + comm.rank() * local * out,
                                static_cast<std::size_t>(local * out)),
         dyl.span());
    Tensor y, dx;
    const ComputeContext& ctx = comm.ctx();
    layer.forward(xl, y, true, ctx);
    for (auto& p : layer.params()) p.grad->zero();
    layer.backward(xl, y, dyl, dx, ctx);
    // The one communication of the data-parallel step: gradient allreduce.
    for (auto& p : layer.params()) {
      comm.allreduce_sum(p.grad->span(), comm::AllreduceAlgo::kRing);
    }
  });
  return cluster.total_traffic();
}

}  // namespace

int main(int argc, char** argv) {
  const int world = argc > 1 ? std::atoi(argv[1]) : 4;
  if (world <= 0) {
    std::fprintf(stderr, "usage: %s [world>0]\n", argv[0]);
    return 1;
  }
  const std::int64_t in = 512, out = 512;
  std::printf("layer: linear %lldx%lld (%lld params), %d ranks\n\n",
              static_cast<long long>(in), static_cast<long long>(out),
              static_cast<long long>(in * out), world);

  std::printf("%10s %22s %22s %10s\n", "batch", "model-parallel bytes",
              "data-parallel bytes", "winner");
  for (std::int64_t batch = 16; batch <= 4096; batch *= 4) {
    const auto mp = model_parallel_step(world, in, out, batch);
    const auto dp = data_parallel_step(world, in, out, batch);
    std::printf("%10lld %22lld %22lld %10s\n",
                static_cast<long long>(batch),
                static_cast<long long>(mp.bytes),
                static_cast<long long>(dp.bytes),
                mp.bytes < dp.bytes ? "model" : "data");
  }
  std::printf(
      "\nThe crossover in action: model-parallel traffic grows with the\n"
      "batch (activations cross the partition boundary), data-parallel\n"
      "traffic is the fixed gradient size. Large-batch ImageNet training\n"
      "lives far to the right of the crossover, so the paper replicates\n"
      "the model and shards the data (Figure 2(a)) — and spends its\n"
      "ingenuity (LARS) on making the big batch trainable instead.\n");
  return 0;
}

// Figure 3: per-device throughput (images/second) rises with the local
// batch size over a range, then saturates — the reason scaling out requires
// scaling the global batch.
//
// Measured on this machine with the proxy model: one forward+backward pass
// per batch size, repeated for stable timing.
#include <chrono>
#include <cstdio>

#include "bench_common.hpp"
#include "core/proxy.hpp"
#include "nn/loss.hpp"

using namespace minsgd;

int main() {
  const ComputeContext ctx;
  bench::banner("Figure 3 — device throughput vs per-device batch size",
                "within a range, larger batches make a single device faster "
                "(better kernel efficiency); memory bounds the range");

  auto proxy = core::bench_proxy();
  data::SyntheticImageNet ds(proxy.dataset);
  auto net = proxy.alexnet_factory()();
  Rng rng(1);
  net->init(rng);
  nn::SoftmaxCrossEntropy loss;
  data::ShardedLoader loader(ds, 512);

  core::CsvWriter csv(bench::csv_path("fig3_throughput"),
                      {"local_batch", "images_per_second"});
  std::printf("%12s %18s\n", "local batch", "images/second");

  double best = 0.0;
  std::int64_t best_batch = 0;
  for (std::int64_t batch : {1, 2, 4, 8, 16, 32, 64, 128, 256}) {
    // Build a batch of the requested size from the loader's 512-image batch.
    const auto full = loader.load_train(0, 0, ctx);
    const std::int64_t img = ds.image_numel();
    data::Batch b;
    b.x = Tensor({batch, 3, ds.resolution(), ds.resolution()});
    b.labels.assign(full.labels.begin(), full.labels.begin() + batch);
    std::copy(full.x.data(), full.x.data() + batch * img, b.x.data());

    Tensor logits, dlogits, dx;
    // Warm-up pass, then timed passes covering >= 512 images.
    net->zero_grad();
    net->forward(b.x, logits, true, ctx);
    auto lres = loss.forward_backward(logits, b.labels, &dlogits, ctx);
    (void)lres;
    net->backward(b.x, logits, dlogits, dx, ctx);

    const std::int64_t reps = std::max<std::int64_t>(1, 512 / batch);
    const auto t0 = std::chrono::steady_clock::now();
    for (std::int64_t r = 0; r < reps; ++r) {
      net->zero_grad();
      net->forward(b.x, logits, true, ctx);
      loss.forward_backward(logits, b.labels, &dlogits, ctx);
      net->backward(b.x, logits, dlogits, dx, ctx);
    }
    const double dt =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    const double ips = static_cast<double>(reps * batch) / dt;
    std::printf("%12lld %18.1f\n", static_cast<long long>(batch), ips);
    csv.row(batch, ips);
    if (ips > best) {
      best = ips;
      best_batch = batch;
    }
  }
  std::printf("\npeak throughput at local batch %lld — the paper's M40 curve "
              "peaks at 512 per GPU;\nthe shape (rise then plateau) is the "
              "claim under test.\n",
              static_cast<long long>(best_batch));
  return 0;
}

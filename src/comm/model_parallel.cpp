#include "comm/model_parallel.hpp"

#include <stdexcept>
#include <vector>

#include "nn/init.hpp"
#include "tensor/gemm.hpp"
#include "tensor/ops.hpp"
#include "tensor/rng.hpp"

namespace minsgd::comm {

ShardedLinear::ShardedLinear(Communicator& comm, std::int64_t in_features,
                             std::int64_t out_features)
    : comm_(comm), in_(in_features), out_(out_features) {
  if (in_ <= 0 || out_ <= 0) {
    throw std::invalid_argument("ShardedLinear: bad dimensions");
  }
  const std::int64_t world = comm.world();
  if (out_ < world) {
    throw std::invalid_argument(
        "ShardedLinear: fewer output rows than ranks");
  }
  const std::int64_t base = out_ / world;
  const std::int64_t extra = out_ % world;
  rows_ = base + (comm.rank() < extra ? 1 : 0);
  first_ = comm.rank() * base + std::min<std::int64_t>(comm.rank(), extra);
  w_.resize({rows_, in_});
  b_.resize({rows_});
  dw_.resize({rows_, in_});
  db_.resize({rows_});
}

void ShardedLinear::init(std::uint64_t seed) {
  // Draw the full (out x in) matrix from the shared stream and keep only
  // this rank's rows, so the assembled matrix is seed-determined and
  // identical to the single-machine layer's.
  Rng rng(seed);
  Tensor full({out_, in_});
  nn::he_normal(full, in_, rng);
  copy(std::span<const float>(full.data() + first_ * in_,
                              static_cast<std::size_t>(rows_ * in_)),
       w_.span());
  b_.zero();
  dw_.zero();
  db_.zero();
}

void ShardedLinear::forward(const Tensor& x, Tensor& y) {
  if (x.shape().rank() != 2 || x.shape()[1] != in_) {
    throw std::invalid_argument("ShardedLinear::forward: bad input " +
                                x.shape().str());
  }
  const std::int64_t batch = x.shape()[0];
  // Local block: (batch x rows_) = x (batch x in) * W_local^T.
  Tensor local({batch, rows_});
  sgemm(comm_.ctx(), Trans::kNo, Trans::kYes, batch, rows_, in_, 1.0f,
        x.data(), in_, w_.data(), in_, 0.0f, local.data(), rows_);
  for (std::int64_t n = 0; n < batch; ++n) {
    for (std::int64_t r = 0; r < rows_; ++r) local.at(n, r) += b_[r];
  }

  // Assemble the full activation. Shards can be unequal, so exchange
  // row-counts-tagged blocks via the generic allgather on a padded layout:
  // simplest correct approach is per-rank broadcast of its block size and
  // content using the collective tag machinery via allgather over a padded
  // max-size buffer.
  const std::int64_t world = comm_.world();
  const std::int64_t max_rows = (out_ + world - 1) / world;
  std::vector<float> padded(static_cast<std::size_t>(batch * max_rows), 0.0f);
  for (std::int64_t n = 0; n < batch; ++n) {
    for (std::int64_t r = 0; r < rows_; ++r) {
      padded[static_cast<std::size_t>(n * max_rows + r)] = local.at(n, r);
    }
  }
  std::vector<float> gathered(padded.size() *
                              static_cast<std::size_t>(world));
  comm_.allgather(padded, gathered);

  y.resize({batch, out_});
  const std::int64_t base = out_ / world;
  const std::int64_t extra = out_ % world;
  for (std::int64_t rank = 0; rank < world; ++rank) {
    const std::int64_t rrows = base + (rank < extra ? 1 : 0);
    const std::int64_t rfirst = rank * base + std::min(rank, extra);
    const float* src =
        gathered.data() + static_cast<std::size_t>(rank) * padded.size();
    for (std::int64_t n = 0; n < batch; ++n) {
      for (std::int64_t r = 0; r < rrows; ++r) {
        y.at(n, rfirst + r) = src[n * max_rows + r];
      }
    }
  }
}

void ShardedLinear::backward(const Tensor& x, const Tensor& dy, Tensor& dx) {
  const std::int64_t batch = x.shape()[0];
  if (dy.shape() != Shape({batch, out_})) {
    throw std::invalid_argument("ShardedLinear::backward: bad dy shape");
  }
  // Slice this rank's columns of dy.
  Tensor dy_local({batch, rows_});
  for (std::int64_t n = 0; n < batch; ++n) {
    for (std::int64_t r = 0; r < rows_; ++r) {
      dy_local.at(n, r) = dy.at(n, first_ + r);
    }
  }
  // dW_local += dy_local^T * x ;  db_local += column sums.
  sgemm(comm_.ctx(), Trans::kYes, Trans::kNo, rows_, in_, batch, 1.0f,
        dy_local.data(), rows_, x.data(), in_, 1.0f, dw_.data(), in_);
  for (std::int64_t n = 0; n < batch; ++n) {
    for (std::int64_t r = 0; r < rows_; ++r) db_[r] += dy_local.at(n, r);
  }
  // dx = sum over ranks of dy_local * W_local (each rank contributes the
  // part of the chain rule flowing through its rows).
  dx.resize({batch, in_});
  sgemm(comm_.ctx(), Trans::kNo, Trans::kNo, batch, in_, rows_, 1.0f,
        dy_local.data(), rows_, w_.data(), in_, 0.0f, dx.data(), in_);
  comm_.allreduce_sum(dx.span(), AllreduceAlgo::kRing);
}

}  // namespace minsgd::comm

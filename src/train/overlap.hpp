// OverlapAllreducer: hides gradient allreduce under the backward pass.
//
// The glue between the two halves of comm/compute overlap: it subscribes to
// Network's gradient-ready hook (fired per top-level layer as backward
// walks output→input) and the async collective engine (a per-rank FIFO comm
// worker). The network's flat gradient storage (Network::grad_span()) is
// divided into fixed `bucket_bytes` buckets *by flat offset* — exactly the
// boundaries the serial bucketed loop in SyncReplica uses. A bucket is a
// view, not a copy: it launches the moment every parameter overlapping it
// has reported and is reduced in place while backward writes earlier
// layers' gradients, which lie outside every launched bucket.
//
// Why this is bit-exact against overlap off: a bucket's allreduce result
// depends only on (bucket contents, algorithm, world), not on when or in
// what order buckets are launched. Identical bucket boundaries + identical
// algorithm ⇒ identical per-element reduction order ⇒ identical bits. The
// determinism tests (tests/test_overlap.cpp) enforce this at world sizes
// {1, 2, 4, 8}.
//
// Why tags still match across ranks: backward's layer walk is the same on
// every rank, so buckets complete — and launch — in the same order
// everywhere, and the engine executes them FIFO on a dedicated tag channel.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "comm/async.hpp"
#include "nn/network.hpp"

namespace minsgd::train {

/// Throws std::invalid_argument (prefixed with `who`) unless `bucket_bytes`
/// follows the TrainOptions convention: 0 = one bucket, otherwise >= 4.
void validate_bucket_bytes(std::int64_t bucket_bytes, const char* who);

class OverlapAllreducer {
 public:
  /// Installs itself as `net`'s gradient-ready hook (materializing
  /// net.grad_span()). `bucket_bytes` uses the TrainOptions convention
  /// (validate_bucket_bytes): 0 = one bucket
  /// spanning the whole gradient, otherwise >= 4. The hook is removed on
  /// destruction.
  OverlapAllreducer(nn::Network& net, comm::Communicator& comm,
                    std::int64_t bucket_bytes, comm::AllreduceAlgo algo);
  ~OverlapAllreducer();

  OverlapAllreducer(const OverlapAllreducer&) = delete;
  OverlapAllreducer& operator=(const OverlapAllreducer&) = delete;

  /// Resets bucket fill state. Call before every backward().
  void begin_iteration();

  /// Launches any bucket that has not launched yet (a no-op when the hook
  /// observed every layer) and blocks until all in-flight allreduces
  /// complete, rethrowing the first failure. Returns net.grad_span(), now
  /// holding the rank-summed gradient.
  std::span<float> finish();

  /// Wall-clock time finish() spent blocked — the *exposed* communication
  /// the backward pass failed to hide. Accumulated across iterations.
  std::int64_t exposed_ns() const { return exposed_ns_; }

  /// Total collective execution time on the comm worker (hidden+exposed).
  std::int64_t comm_ns() const { return engine_.busy_ns(); }

  std::size_t num_buckets() const { return bucket_fill_.size(); }

 private:
  void on_layer_ready(std::size_t layer_index);
  void launch(std::size_t bucket);
  std::size_t bucket_size(std::size_t bucket) const;

  struct LayerRange {
    std::size_t lo = 0, hi = 0;  // [lo, hi): flat floats this layer covers
  };

  nn::Network& net_;
  comm::AsyncCollectiveEngine engine_;
  comm::AllreduceAlgo algo_;
  std::span<float> grad_;  // net_.grad_span(); buckets are subspans of it
  std::size_t bucket_floats_ = 0;
  std::vector<LayerRange> layers_;
  std::vector<std::size_t> bucket_fill_;         // floats reported per bucket
  std::vector<char> launched_;
  std::vector<comm::AllreduceHandle> handles_;   // in launch order
  std::int64_t exposed_ns_ = 0;
};

}  // namespace minsgd::train

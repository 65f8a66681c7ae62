// Optimizer: interface shared by SGD and LARS so trainers stay generic.
//
// step() consumes the *summed-and-averaged* gradient sitting in each
// ParamRef::grad (the trainer is responsible for the allreduce and the 1/P
// scaling) and updates the parameter in place. Optimizers own their state
// (momentum buffers) keyed by position, so the params span must be the same
// sequence on every call.
#pragma once

#include <iosfwd>
#include <span>

#include "nn/layer.hpp"

namespace minsgd::optim {

class Optimizer {
 public:
  virtual ~Optimizer() = default;

  /// Applies one update with global learning rate `lr`. `ctx` supplies the
  /// intra-op thread budget; updates are bit-identical for any thread count.
  void step(std::span<nn::ParamRef> params, double lr,
            const ComputeContext& ctx) {
    do_step(params, lr, ctx);
  }

  /// Clears internal state (momentum buffers).
  virtual void reset() = 0;

  /// Writes the internal state (momentum buffers) to `out`. An optimizer
  /// that has never stepped writes an empty state. Used by resumable
  /// training: momentum is part of the trajectory, so resuming a paper-
  /// style 90-epoch run without it changes the result.
  virtual void save_state(std::ostream& out) const = 0;

  /// Restores state written by save_state. The next step() must use the
  /// same parameter sequence as when the state was saved.
  virtual void load_state(std::istream& in) = 0;

 protected:
  /// Implementation hook behind the non-virtual step() above.
  virtual void do_step(std::span<nn::ParamRef> params, double lr,
                       const ComputeContext& ctx) = 0;
};

namespace detail {
/// Shared (de)serialization for a velocity-buffer vector.
void save_tensor_vector(std::ostream& out, const std::vector<Tensor>& v);
void load_tensor_vector(std::istream& in, std::vector<Tensor>& v);
}  // namespace detail

}  // namespace minsgd::optim

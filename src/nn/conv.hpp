// Conv2d: 2-D convolution on the packed sgemm microkernels. Each pass picks
// one of three lowerings through kernels::conv2d_lowering, the predicate
// plan and run share:
//   gemm    1x1 stride-1 unpadded — the input plane is the column matrix;
//   fused   every other ungrouped shape where the im2col sgemm would take
//           its packed path (and stride-1 3x3 forward at any size) — im2col
//           folded into panel packing for forward, dW and dx, with no
//           materialized col/dcol (tensor/kernels/conv_direct.hpp);
//   im2col  grouped convs and shapes at or below kSmallGemmFlops
//           (kernels::conv2d_{forward,backward}_im2col) — the reference.
// The lowering is a function of shape only. Fused and gemm bytes equal
// the im2col bytes wherever they apply.
#pragma once

#include <cstdint>
#include <string>

#include "nn/layer.hpp"
#include "nn/plan.hpp"
#include "tensor/kernels/conv_direct.hpp"

namespace minsgd::nn {

/// 2-D convolution over NCHW inputs. Weight layout is OIHW; output is
/// NC'H'W' with H' = (H + 2*pad - kh)/stride + 1.
class Conv2d final : public Layer {
 public:
  /// `groups` splits channels Krizhevsky-style: in/out channels are divided
  /// into `groups` independent convolutions (weight is OIHW with
  /// I = in_channels/groups).
  Conv2d(std::int64_t in_channels, std::int64_t out_channels,
         std::int64_t kernel, std::int64_t stride = 1, std::int64_t pad = 0,
         bool bias = true, std::int64_t groups = 1);

  std::string name() const override;
  Shape output_shape(const Shape& input) const override;
  std::vector<ParamRef> params() override;
  void init(Rng& rng) override;
  std::int64_t flops(const Shape& input) const override;

  Tensor& weight() { return w_; }
  Tensor& bias() { return b_; }

  /// Backward reads x (dW needs it) but only y's shape, never its data —
  /// the planner may retire conv outputs at their last forward read.
  bool backward_reads_output() const override { return false; }

  Shape plan_forward(PlanBuilder& builder, const Shape& input) override;
  void plan_backward(PlanBuilder& builder, const Shape& input) override;

  /// The lowering `pass` takes at `input`.
  kernels::ConvLowering lowering(const Shape& input,
                                 kernels::ConvPass pass) const;

  /// True when the last plan walk reserved whole backward col/dcol
  /// matrices — only the im2col lowering needs them.
  bool plans_backward_columns() const {
    return plan_bwd_col_ != kNoTensor || plan_bwd_dcol_ != kNoTensor;
  }

 protected:
  void do_forward(const Tensor& x, Tensor& y, bool training,
                  const ComputeContext& ctx, PlanContext& pc) override;
  void do_backward(const Tensor& x, const Tensor& y, const Tensor& dy,
                   Tensor& dx, const ComputeContext& ctx,
                   PlanContext& pc) override;

 private:
  kernels::Conv2dGeom geom(const Shape& input) const;

  /// Backward dW-partial chunk count: a function of (batch, weight size)
  /// only, shared by plan_backward and do_backward so the planned scratch
  /// block always matches the runtime request.
  std::int64_t backward_chunks(std::int64_t batch) const;

  std::int64_t in_c_, out_c_, k_, stride_, pad_, groups_;
  bool has_bias_;
  Tensor w_, b_, dw_, db_;

  // Scratch ids assigned by the most recent plan walk (kNoTensor when the
  // plan decided the scratch is not needed, e.g. direct paths).
  TensorId plan_fwd_col_ = kNoTensor;
  TensorId plan_bwd_col_ = kNoTensor;
  TensorId plan_bwd_dcol_ = kNoTensor;
  TensorId plan_bwd_dcol_block_ = kNoTensor;  // fused: one dcol row block
  TensorId plan_bwd_dw_ = kNoTensor;
  TensorId plan_bwd_db_ = kNoTensor;
};

}  // namespace minsgd::nn

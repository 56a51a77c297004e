#pragma once

/// \file batchnorm.hpp
/// Batch normalization over the channel axis (rank-4 input) or the feature
/// axis (rank-2 input). At inference time the affine transform collapses to
/// per-channel scale/shift, which is what the FINN threshold-folding step in
/// src/hls consumes.

#include "adaflow/nn/layer.hpp"

namespace adaflow::nn {

/// Per-channel affine form of a trained BatchNorm: y = scale*x + shift.
struct AffineChannel {
  std::vector<float> scale;
  std::vector<float> shift;
};

class BatchNorm final : public Layer {
 public:
  BatchNorm(std::string name, std::int64_t channels, float momentum = 0.1f, float eps = 1e-5f);

  LayerKind kind() const override { return LayerKind::kBatchNorm; }
  Tensor forward(Tensor input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  std::vector<Param*> params() override { return {&gamma_, &beta_}; }
  Shape output_shape(const Shape& input) const override;

  std::int64_t channels() const { return channels_; }

  /// Inference-time per-channel scale/shift from the running statistics.
  AffineChannel inference_affine() const;

  // Raw accessors used by serialization and the pruner.
  const Tensor& gamma() const { return gamma_.value; }
  const Tensor& beta() const { return beta_.value; }
  const std::vector<float>& running_mean() const { return running_mean_; }
  const std::vector<float>& running_var() const { return running_var_; }
  void set_statistics(std::vector<float> mean, std::vector<float> var);
  void set_affine(Tensor gamma, Tensor beta);
  float eps() const { return eps_; }

 private:
  std::int64_t channels_;
  float momentum_;
  float eps_;
  Param gamma_;
  Param beta_;
  std::vector<float> running_mean_;
  std::vector<float> running_var_;

  // Forward caches (training mode).
  Tensor cached_normalized_;
  std::vector<float> cached_batch_std_;
  std::int64_t cached_per_channel_ = 0;
};

}  // namespace adaflow::nn

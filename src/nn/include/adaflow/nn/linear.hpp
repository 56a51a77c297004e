#pragma once

/// \file linear.hpp
/// Fully-connected layer with optional quantization-aware weights. Accepts
/// rank-2 [N, in] or rank-4 [N, C, H, W] input (flattened internally, which
/// is how the CNV topology feeds its classifier head).

#include "adaflow/nn/layer.hpp"
#include "adaflow/nn/quant.hpp"

namespace adaflow::nn {

class Linear final : public Layer {
 public:
  Linear(std::string name, std::int64_t in_features, std::int64_t out_features, QuantSpec quant,
         Rng& rng);
  Linear(std::string name, std::int64_t in_features, std::int64_t out_features, QuantSpec quant,
         Tensor weight);

  LayerKind kind() const override { return LayerKind::kLinear; }
  Tensor forward(Tensor input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  /// Skips the input gradient's GEMM.
  void backward_params(const Tensor& grad_output) override;
  std::vector<Param*> params() override { return {&weight_}; }
  Shape output_shape(const Shape& input) const override;

  std::int64_t in_features() const { return in_features_; }
  std::int64_t out_features() const { return out_features_; }
  const QuantSpec& quant() const { return quant_; }

  /// Shadow weight matrix, shape [out_features, in_features].
  const Tensor& weight() const { return weight_.value; }
  Tensor& mutable_weight() { return weight_.value; }

  Tensor effective_weight() const;
  QuantizedWeights export_quantized() const;

 private:
  std::int64_t in_features_;
  std::int64_t out_features_;
  QuantSpec quant_;
  Param weight_;

  Tensor cached_input_;  // flattened [N, in]
  Shape cached_input_shape_;
  Tensor cached_effective_weight_;
};

}  // namespace adaflow::nn

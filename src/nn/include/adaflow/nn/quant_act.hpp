#pragma once

/// \file quant_act.hpp
/// Activation layer: n-bit unsigned uniform quantizer with straight-through
/// gradients (act_bits > 0), or a plain ReLU (act_bits == 0, the float
/// baseline).

#include "adaflow/nn/layer.hpp"
#include "adaflow/nn/quant.hpp"

namespace adaflow::nn {

class QuantAct final : public Layer {
 public:
  QuantAct(std::string name, QuantSpec quant);

  LayerKind kind() const override { return LayerKind::kQuantAct; }
  Tensor forward(Tensor input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  Shape output_shape(const Shape& input) const override { return input; }

  const QuantSpec& quant() const { return quant_; }

 private:
  QuantSpec quant_;
  Tensor cached_input_;
};

}  // namespace adaflow::nn

#pragma once

/// \file maxpool2d.hpp
/// Channelwise max pooling (kernel == stride, the FINN MaxPool shape).

#include "adaflow/nn/layer.hpp"

namespace adaflow::nn {

class MaxPool2d final : public Layer {
 public:
  MaxPool2d(std::string name, std::int64_t kernel);

  LayerKind kind() const override { return LayerKind::kMaxPool2d; }
  Tensor forward(Tensor input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  Shape output_shape(const Shape& input) const override;

  std::int64_t kernel() const { return kernel_; }

 private:
  std::int64_t kernel_;
  Shape cached_input_shape_;
  std::vector<std::int64_t> argmax_;  // flat input index per output element
};

}  // namespace adaflow::nn

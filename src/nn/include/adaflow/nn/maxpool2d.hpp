#pragma once

/// \file maxpool2d.hpp
/// Channelwise max pooling (kernel == stride, the FINN MaxPool shape).
/// Each window's maximum is its first element that no later one exceeds
/// (strict >, scanned row by row), so ties go to the first and a NaN wins
/// only from the window's first position. The 2x2 window (CNV's only pool)
/// has its own loop; other kernels take a generic one with the same result.

#include <cstdint>
#include <vector>

#include "adaflow/nn/layer.hpp"

namespace adaflow::nn {

class MaxPool2d final : public Layer {
 public:
  /// \p kernel in [1, kMaxKernel].
  MaxPool2d(std::string name, std::int64_t kernel);

  /// A window's winner is recorded in one byte.
  static constexpr std::int64_t kMaxKernel = 16;

  LayerKind kind() const override { return LayerKind::kMaxPool2d; }
  Tensor forward(Tensor input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  Shape output_shape(const Shape& input) const override;

  std::int64_t kernel() const { return kernel_; }

 private:
  std::int64_t kernel_;
  Shape cached_input_shape_;
  /// Per output element: its winner kh * kernel + kw within the window.
  std::vector<std::uint8_t> winner_;
};

}  // namespace adaflow::nn

#pragma once

/// \file conv2d.hpp
/// 2-D convolution with optional quantization-aware weights. Implemented as
/// im2col + GEMM over column panels of whole samples, processed in parallel.

#include "adaflow/nn/layer.hpp"
#include "adaflow/nn/quant.hpp"

namespace adaflow::nn {

/// Static configuration of a convolution layer.
struct Conv2dConfig {
  std::int64_t in_channels = 0;
  std::int64_t out_channels = 0;
  std::int64_t kernel = 3;
  std::int64_t stride = 1;
  std::int64_t pad = 0;
};

class Conv2d final : public Layer {
 public:
  /// Creates the layer with He-normal initialized shadow weights.
  Conv2d(std::string name, Conv2dConfig config, QuantSpec quant, Rng& rng);

  /// Creates the layer with externally supplied weights (used by the pruner
  /// when rebuilding a smaller model). \p weight is [out, in*k*k].
  Conv2d(std::string name, Conv2dConfig config, QuantSpec quant, Tensor weight);

  LayerKind kind() const override { return LayerKind::kConv2d; }
  Tensor forward(Tensor input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  /// Skips the input gradient's GEMM and col2im.
  void backward_params(const Tensor& grad_output) override;
  std::vector<Param*> params() override { return {&weight_}; }
  Shape output_shape(const Shape& input) const override;

  const Conv2dConfig& config() const { return config_; }
  const QuantSpec& quant() const { return quant_; }

  /// Shadow (float) weight matrix, shape [out_channels, in_channels*k*k].
  const Tensor& weight() const { return weight_.value; }
  Tensor& mutable_weight() { return weight_.value; }

  /// Weights as the forward pass sees them: quantized levels*scale when the
  /// layer is quantized, the shadow weights otherwise.
  Tensor effective_weight() const;

  /// Integer levels + scale for export to the HLS MVTU (requires quantized
  /// weights; throws otherwise).
  QuantizedWeights export_quantized() const;

  std::int64_t output_dim(std::int64_t input_dim) const;

  /// The forward and input-gradient GEMMs run over column panels of whole
  /// samples. A sample with few output pixels (the late convs) would give
  /// a GEMM too narrow for the vector tiles, so a panel takes the smallest
  /// power-of-two number of samples (at most the batch) that reaches
  /// kPanelColumns columns.
  static constexpr std::int64_t kPanelColumns = 256;
  struct Panels {
    std::int64_t samples = 1;  ///< per panel; the last one may hold fewer
    std::int64_t count = 0;
  };
  static Panels panels(std::int64_t batch, std::int64_t pixels);

 private:
  Tensor backward_pass(const Tensor& grad_output, bool input_grad);

  Conv2dConfig config_;
  QuantSpec quant_;
  Param weight_;

  // Forward caches for backward.
  Tensor cached_input_;
  Tensor cached_effective_weight_;
};

/// Copies one sample's [C,H,W] block into an im2col matrix with
/// [C*k*k] rows and [out_h*out_w] columns. Exposed for the HLS SWU tests.
/// Rows of \p col lie \p col_ld floats apart; 0 means out_h*out_w, a
/// contiguous matrix. A larger stride places the sample in a multi-sample
/// panel.
void im2col(const float* input, std::int64_t channels, std::int64_t height, std::int64_t width,
            std::int64_t kernel, std::int64_t stride, std::int64_t pad, float* col,
            std::int64_t col_ld = 0);

/// Adjoint of im2col: scatters the column matrix back, accumulating overlaps.
void col2im(const float* col, std::int64_t channels, std::int64_t height, std::int64_t width,
            std::int64_t kernel, std::int64_t stride, std::int64_t pad, float* input,
            std::int64_t col_ld = 0);

}  // namespace adaflow::nn

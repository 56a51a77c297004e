#include "adaflow/nn/conv2d.hpp"

#include <algorithm>
#include <vector>

#include "adaflow/common/parallel.hpp"
#include "adaflow/nn/gemm.hpp"

namespace adaflow::nn {

namespace {
Shape weight_shape(const Conv2dConfig& c) {
  return Shape{c.out_channels, c.in_channels * c.kernel * c.kernel};
}
}  // namespace

Conv2d::Conv2d(std::string name, Conv2dConfig config, QuantSpec quant, Rng& rng)
    : Layer(std::move(name)), config_(config), quant_(quant) {
  require(config_.in_channels > 0 && config_.out_channels > 0, "conv channels must be positive");
  require(config_.kernel > 0 && config_.stride > 0 && config_.pad >= 0, "bad conv geometry");
  const std::int64_t fan_in = config_.in_channels * config_.kernel * config_.kernel;
  weight_ = Param(Tensor::he_normal(weight_shape(config_), fan_in, rng));
}

Conv2d::Conv2d(std::string name, Conv2dConfig config, QuantSpec quant, Tensor weight)
    : Layer(std::move(name)), config_(config), quant_(quant) {
  if (weight.shape() != weight_shape(config_)) {
    throw ShapeError("conv weight shape mismatch: " + weight.shape_string());
  }
  weight_ = Param(std::move(weight));
}

std::int64_t Conv2d::output_dim(std::int64_t input_dim) const {
  return (input_dim + 2 * config_.pad - config_.kernel) / config_.stride + 1;
}

Shape Conv2d::output_shape(const Shape& input) const {
  if (input.size() != 4 || input[1] != config_.in_channels) {
    throw ShapeError("conv " + name() + " expects [N, " + std::to_string(config_.in_channels) +
                     ", H, W]");
  }
  return Shape{input[0], config_.out_channels, output_dim(input[2]), output_dim(input[3])};
}

Tensor Conv2d::effective_weight() const {
  if (!quant_.quantized_weights()) {
    return weight_.value;
  }
  QuantizedWeights q = quantize_weights(weight_.value, quant_.weight_bits);
  Tensor w(q.levels.shape());
  for (std::int64_t i = 0; i < w.size(); ++i) {
    w[i] = q.levels[i] * q.scale;
  }
  return w;
}

QuantizedWeights Conv2d::export_quantized() const {
  require(quant_.quantized_weights(), "conv " + name() + " has float weights");
  return quantize_weights(weight_.value, quant_.weight_bits);
}

Tensor Conv2d::forward(const Tensor& input, bool training) {
  const Shape out_shape = output_shape(input.shape());
  const std::int64_t batch = input.dim(0);
  const std::int64_t in_h = input.dim(2);
  const std::int64_t in_w = input.dim(3);
  const std::int64_t out_h = out_shape[2];
  const std::int64_t out_w = out_shape[3];
  const std::int64_t k_count = config_.in_channels * config_.kernel * config_.kernel;
  const std::int64_t n_count = out_h * out_w;

  Tensor w = effective_weight();
  Tensor output(out_shape);

  parallel_for(batch, [&](std::int64_t n) {
    std::vector<float> col(static_cast<std::size_t>(k_count * n_count));
    const float* in_ptr = input.data() + n * config_.in_channels * in_h * in_w;
    im2col(in_ptr, config_.in_channels, in_h, in_w, config_.kernel, config_.stride, config_.pad,
           col.data());
    float* out_ptr = output.data() + n * config_.out_channels * n_count;
    gemm_nn(config_.out_channels, n_count, k_count, w.data(), col.data(), out_ptr);
  });

  if (training) {
    cached_input_ = input;
    cached_effective_weight_ = std::move(w);
  }
  return output;
}

Tensor Conv2d::backward(const Tensor& grad_output) {
  require(!cached_input_.empty(), "conv backward without forward");
  const Tensor& input = cached_input_;
  const std::int64_t batch = input.dim(0);
  const std::int64_t in_h = input.dim(2);
  const std::int64_t in_w = input.dim(3);
  const std::int64_t out_h = grad_output.dim(2);
  const std::int64_t out_w = grad_output.dim(3);
  const std::int64_t k_count = config_.in_channels * config_.kernel * config_.kernel;
  const std::int64_t n_count = out_h * out_w;

  Tensor grad_input(input.shape());
  // Per-sample weight-gradient partials, reduced serially afterwards.
  std::vector<Tensor> dw_partial(static_cast<std::size_t>(batch));

  parallel_for(batch, [&](std::int64_t n) {
    std::vector<float> col(static_cast<std::size_t>(k_count * n_count));
    const float* in_ptr = input.data() + n * config_.in_channels * in_h * in_w;
    im2col(in_ptr, config_.in_channels, in_h, in_w, config_.kernel, config_.stride, config_.pad,
           col.data());

    const float* dy = grad_output.data() + n * config_.out_channels * n_count;

    // dW_n = dY_n [out, HW] * col^T [HW, K]
    Tensor dw(weight_.value.shape());
    gemm_nt(config_.out_channels, k_count, n_count, dy, col.data(), dw.data());
    dw_partial[static_cast<std::size_t>(n)] = std::move(dw);

    // dCol = W^T [K, out] * dY_n [out, HW]
    std::vector<float> dcol(static_cast<std::size_t>(k_count * n_count), 0.0f);
    gemm_tn(k_count, n_count, config_.out_channels, cached_effective_weight_.data(), dy,
            dcol.data());
    float* dx = grad_input.data() + n * config_.in_channels * in_h * in_w;
    col2im(dcol.data(), config_.in_channels, in_h, in_w, config_.kernel, config_.stride,
           config_.pad, dx);
  });

  for (const Tensor& dw : dw_partial) {
    for (std::int64_t i = 0; i < weight_.grad.size(); ++i) {
      weight_.grad[i] += dw[i];  // STE: gradient w.r.t. quantized weight flows to shadow
    }
  }
  return grad_input;
}

void im2col(const float* input, std::int64_t channels, std::int64_t height, std::int64_t width,
            std::int64_t kernel, std::int64_t stride, std::int64_t pad, float* col) {
  const std::int64_t out_h = (height + 2 * pad - kernel) / stride + 1;
  const std::int64_t out_w = (width + 2 * pad - kernel) / stride + 1;
  std::int64_t row = 0;
  if (pad == 0 && stride == 1) {
    // Every window lies inside the image (the CNV geometry): whole rows copy.
    for (std::int64_t c = 0; c < channels; ++c) {
      for (std::int64_t kh = 0; kh < kernel; ++kh) {
        for (std::int64_t kw = 0; kw < kernel; ++kw, ++row) {
          for (std::int64_t oh = 0; oh < out_h; ++oh) {
            const float* src = input + (c * height + oh + kh) * width + kw;
            std::copy(src, src + out_w, col + (row * out_h + oh) * out_w);
          }
        }
      }
    }
    return;
  }
  for (std::int64_t c = 0; c < channels; ++c) {
    for (std::int64_t kh = 0; kh < kernel; ++kh) {
      for (std::int64_t kw = 0; kw < kernel; ++kw, ++row) {
        float* dst = col + row * out_h * out_w;
        for (std::int64_t oh = 0; oh < out_h; ++oh) {
          const std::int64_t ih = oh * stride + kh - pad;
          for (std::int64_t ow = 0; ow < out_w; ++ow) {
            const std::int64_t iw = ow * stride + kw - pad;
            const bool inside = ih >= 0 && ih < height && iw >= 0 && iw < width;
            dst[oh * out_w + ow] = inside ? input[(c * height + ih) * width + iw] : 0.0f;
          }
        }
      }
    }
  }
}

void col2im(const float* col, std::int64_t channels, std::int64_t height, std::int64_t width,
            std::int64_t kernel, std::int64_t stride, std::int64_t pad, float* input) {
  const std::int64_t out_h = (height + 2 * pad - kernel) / stride + 1;
  const std::int64_t out_w = (width + 2 * pad - kernel) / stride + 1;
  std::int64_t row = 0;
  if (pad == 0 && stride == 1) {
    // Same accumulation order as the general path, without the bounds tests.
    for (std::int64_t c = 0; c < channels; ++c) {
      for (std::int64_t kh = 0; kh < kernel; ++kh) {
        for (std::int64_t kw = 0; kw < kernel; ++kw, ++row) {
          for (std::int64_t oh = 0; oh < out_h; ++oh) {
            const float* src = col + (row * out_h + oh) * out_w;
            float* dst = input + (c * height + oh + kh) * width + kw;
            for (std::int64_t ow = 0; ow < out_w; ++ow) {
              dst[ow] += src[ow];
            }
          }
        }
      }
    }
    return;
  }
  for (std::int64_t c = 0; c < channels; ++c) {
    for (std::int64_t kh = 0; kh < kernel; ++kh) {
      for (std::int64_t kw = 0; kw < kernel; ++kw, ++row) {
        const float* src = col + row * out_h * out_w;
        for (std::int64_t oh = 0; oh < out_h; ++oh) {
          const std::int64_t ih = oh * stride + kh - pad;
          if (ih < 0 || ih >= height) {
            continue;
          }
          for (std::int64_t ow = 0; ow < out_w; ++ow) {
            const std::int64_t iw = ow * stride + kw - pad;
            if (iw < 0 || iw >= width) {
              continue;
            }
            input[(c * height + ih) * width + iw] += src[oh * out_w + ow];
          }
        }
      }
    }
  }
}

}  // namespace adaflow::nn

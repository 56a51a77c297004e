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

Conv2d::Panels Conv2d::panels(std::int64_t batch, std::int64_t pixels) {
  std::int64_t samples = 1;
  while (samples < batch && samples * pixels < kPanelColumns) {
    samples *= 2;
  }
  samples = std::max<std::int64_t>(1, std::min(samples, batch));
  return Panels{samples, (batch + samples - 1) / samples};
}

Tensor Conv2d::forward(const Tensor& input, bool training) {
  const Shape out_shape = output_shape(input.shape());
  const std::int64_t batch = input.dim(0);
  const std::int64_t in_h = input.dim(2);
  const std::int64_t in_w = input.dim(3);
  const std::int64_t out_ch = config_.out_channels;
  const std::int64_t k_count = config_.in_channels * config_.kernel * config_.kernel;
  const std::int64_t pixels = out_shape[2] * out_shape[3];
  const Panels p = panels(batch, pixels);

  Tensor w = effective_weight();
  Tensor output(out_shape);

  // Each output starts from +0 and adds its products in ascending k, the
  // same sum a per-sample GEMM forms, whichever panel holds its column.
  parallel_for(p.count, [&](std::int64_t panel) {
    const std::int64_t first = panel * p.samples;
    const std::int64_t samples = std::min(p.samples, batch - first);
    const std::int64_t cols = samples * pixels;
    std::vector<float> col(static_cast<std::size_t>(k_count * cols));
    for (std::int64_t s = 0; s < samples; ++s) {
      const float* in_ptr = input.data() + (first + s) * config_.in_channels * in_h * in_w;
      im2col(in_ptr, config_.in_channels, in_h, in_w, config_.kernel, config_.stride, config_.pad,
             col.data() + s * pixels, cols);
    }
    std::vector<float> out(static_cast<std::size_t>(out_ch * cols), 0.0f);
    gemm_nn(out_ch, cols, k_count, w.data(), col.data(), out.data());
    for (std::int64_t s = 0; s < samples; ++s) {
      float* out_ptr = output.data() + (first + s) * out_ch * pixels;
      for (std::int64_t c = 0; c < out_ch; ++c) {
        const float* src = out.data() + c * cols + s * pixels;
        std::copy(src, src + pixels, out_ptr + c * pixels);
      }
    }
  });

  if (training) {
    cached_input_ = input;
    cached_effective_weight_ = std::move(w);
  }
  return output;
}

Tensor Conv2d::backward(const Tensor& grad_output) { return backward_pass(grad_output, true); }

void Conv2d::backward_params(const Tensor& grad_output) { backward_pass(grad_output, false); }

Tensor Conv2d::backward_pass(const Tensor& grad_output, bool input_grad) {
  require(!cached_input_.empty(), "conv backward without forward");
  const Tensor& input = cached_input_;
  const std::int64_t batch = input.dim(0);
  const std::int64_t in_h = input.dim(2);
  const std::int64_t in_w = input.dim(3);
  const std::int64_t out_ch = config_.out_channels;
  const std::int64_t k_count = config_.in_channels * config_.kernel * config_.kernel;
  const std::int64_t pixels = grad_output.dim(2) * grad_output.dim(3);

  Tensor grad_input = input_grad ? Tensor(input.shape()) : Tensor();
  // Per-sample weight-gradient partials, reduced serially afterwards in
  // ascending sample order, so the sum does not depend on the panels or the
  // worker count.
  std::vector<Tensor> dw_partial(static_cast<std::size_t>(batch));

  // dW_n = dY_n [out, HW] * col_n^T [HW, K], one sample at a time.
  parallel_for(batch, [&](std::int64_t n) {
    std::vector<float> col(static_cast<std::size_t>(k_count * pixels));
    const float* in_ptr = input.data() + n * config_.in_channels * in_h * in_w;
    im2col(in_ptr, config_.in_channels, in_h, in_w, config_.kernel, config_.stride, config_.pad,
           col.data());
    Tensor dw(weight_.value.shape());
    gemm_nt(out_ch, k_count, pixels, grad_output.data() + n * out_ch * pixels, col.data(),
            dw.data());
    dw_partial[static_cast<std::size_t>(n)] = std::move(dw);
  });

  // dCol = W^T [K, out] * dY [out, panel columns], then col2im per sample.
  if (input_grad) {
    const Panels p = panels(batch, pixels);
    parallel_for(p.count, [&](std::int64_t panel) {
      const std::int64_t first = panel * p.samples;
      const std::int64_t samples = std::min(p.samples, batch - first);
      const std::int64_t cols = samples * pixels;
      std::vector<float> dy(static_cast<std::size_t>(out_ch * cols));
      for (std::int64_t s = 0; s < samples; ++s) {
        const float* src = grad_output.data() + (first + s) * out_ch * pixels;
        for (std::int64_t c = 0; c < out_ch; ++c) {
          std::copy(src + c * pixels, src + (c + 1) * pixels, dy.data() + c * cols + s * pixels);
        }
      }
      std::vector<float> dcol(static_cast<std::size_t>(k_count * cols), 0.0f);
      gemm_tn(k_count, cols, out_ch, cached_effective_weight_.data(), dy.data(), dcol.data());
      for (std::int64_t s = 0; s < samples; ++s) {
        float* dx = grad_input.data() + (first + s) * config_.in_channels * in_h * in_w;
        col2im(dcol.data() + s * pixels, config_.in_channels, in_h, in_w, config_.kernel,
               config_.stride, config_.pad, dx, cols);
      }
    });
  }

  for (const Tensor& dw : dw_partial) {
    for (std::int64_t i = 0; i < weight_.grad.size(); ++i) {
      weight_.grad[i] += dw[i];  // STE: gradient w.r.t. quantized weight flows to shadow
    }
  }
  return grad_input;
}

void im2col(const float* input, std::int64_t channels, std::int64_t height, std::int64_t width,
            std::int64_t kernel, std::int64_t stride, std::int64_t pad, float* col,
            std::int64_t col_ld) {
  const std::int64_t out_h = (height + 2 * pad - kernel) / stride + 1;
  const std::int64_t out_w = (width + 2 * pad - kernel) / stride + 1;
  const std::int64_t ld = col_ld > 0 ? col_ld : out_h * out_w;
  std::int64_t row = 0;
  if (pad == 0 && stride == 1) {
    // Every window lies inside the image (the CNV geometry): whole rows copy.
    for (std::int64_t c = 0; c < channels; ++c) {
      for (std::int64_t kh = 0; kh < kernel; ++kh) {
        for (std::int64_t kw = 0; kw < kernel; ++kw, ++row) {
          for (std::int64_t oh = 0; oh < out_h; ++oh) {
            const float* src = input + (c * height + oh + kh) * width + kw;
            std::copy(src, src + out_w, col + row * ld + oh * out_w);
          }
        }
      }
    }
    return;
  }
  for (std::int64_t c = 0; c < channels; ++c) {
    for (std::int64_t kh = 0; kh < kernel; ++kh) {
      for (std::int64_t kw = 0; kw < kernel; ++kw, ++row) {
        float* dst = col + row * ld;
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
            std::int64_t kernel, std::int64_t stride, std::int64_t pad, float* input,
            std::int64_t col_ld) {
  const std::int64_t out_h = (height + 2 * pad - kernel) / stride + 1;
  const std::int64_t out_w = (width + 2 * pad - kernel) / stride + 1;
  const std::int64_t ld = col_ld > 0 ? col_ld : out_h * out_w;
  std::int64_t row = 0;
  if (pad == 0 && stride == 1) {
    // Same accumulation order as the general path, without the bounds tests.
    for (std::int64_t c = 0; c < channels; ++c) {
      for (std::int64_t kh = 0; kh < kernel; ++kh) {
        for (std::int64_t kw = 0; kw < kernel; ++kw, ++row) {
          for (std::int64_t oh = 0; oh < out_h; ++oh) {
            const float* src = col + row * ld + oh * out_w;
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
        const float* src = col + row * ld;
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

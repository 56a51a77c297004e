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

// Per-thread scratch buffers of the conv passes. Each grows to the largest
// layer that thread has run and is then reused, so a training step
// allocates none of them.
thread_local std::vector<float> t_col;
thread_local std::vector<float> t_out;
thread_local std::vector<float> t_dy;
thread_local std::vector<float> t_dcol;
thread_local std::vector<float> t_padded;

/// \p count floats of \p buffer, not initialised (poisoned in sanitizer
/// builds): the caller writes every one before reading it.
float* workspace(std::vector<float>& buffer, std::int64_t count) {
  if (buffer.size() < static_cast<std::size_t>(count)) {
    buffer.resize(static_cast<std::size_t>(count));
  }
  poison_uninitialized(buffer.data(), count);
  return buffer.data();
}

/// dst[0, count) = src[0, count). A plain loop: the rows copied here are
/// short (28 floats for CNV's conv1), where a memmove call per row costs
/// more than the copy.
inline void copy_floats(const float* src, std::int64_t count, float* dst) {
  for (std::int64_t i = 0; i < count; ++i) {
    dst[i] = src[i];
  }
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

Tensor Conv2d::forward(Tensor input, bool training) {
  const Shape out_shape = output_shape(input.shape());
  const std::int64_t batch = input.dim(0);
  const std::int64_t in_h = input.dim(2);
  const std::int64_t in_w = input.dim(3);
  const std::int64_t out_ch = config_.out_channels;
  const std::int64_t k_count = config_.in_channels * config_.kernel * config_.kernel;
  const std::int64_t pixels = out_shape[2] * out_shape[3];
  const Panels p = panels(batch, pixels);

  Tensor w = effective_weight();
  Tensor output = Tensor::uninitialized(out_shape);

  // Each output starts from +0 and adds its products in ascending k, the
  // same sum a per-sample GEMM forms, whichever panel holds its column.
  parallel_for(p.count, [&](std::int64_t panel) {
    const std::int64_t first = panel * p.samples;
    const std::int64_t samples = std::min(p.samples, batch - first);
    const std::int64_t cols = samples * pixels;
    float* col = workspace(t_col, k_count * cols);
    for (std::int64_t s = 0; s < samples; ++s) {
      const float* in_ptr = input.data() + (first + s) * config_.in_channels * in_h * in_w;
      im2col(in_ptr, config_.in_channels, in_h, in_w, config_.kernel, config_.stride, config_.pad,
             col + s * pixels, cols);
    }
    // A one-sample panel has the layout of that sample's output block, so
    // the GEMM writes there directly.
    float* out = samples == 1 ? output.data() + first * out_ch * pixels
                              : workspace(t_out, out_ch * cols);
    gemm_nn(out_ch, cols, k_count, w.data(), col, out, GemmOut::kWrite);
    if (samples > 1) {
      for (std::int64_t s = 0; s < samples; ++s) {
        float* out_ptr = output.data() + (first + s) * out_ch * pixels;
        for (std::int64_t c = 0; c < out_ch; ++c) {
          copy_floats(out + c * cols + s * pixels, pixels, out_ptr + c * pixels);
        }
      }
    }
  });

  if (training) {
    cached_input_ = std::move(input);
    cached_effective_weight_ = std::move(w);
  }
  return output;
}

Tensor Conv2d::backward(const Tensor& grad_output) { return backward_pass(grad_output, true); }

void Conv2d::backward_params(const Tensor& grad_output) { backward_pass(grad_output, false); }

Tensor Conv2d::backward_pass(const Tensor& grad_output, bool input_grad) {
  require(!cached_input_.empty(), "conv backward without forward");
  const Tensor& input = cached_input_;
  check_grad_output(*this, output_shape(input.shape()), grad_output);
  const std::int64_t batch = input.dim(0);
  const std::int64_t channels = config_.in_channels;
  const std::int64_t in_h = input.dim(2);
  const std::int64_t in_w = input.dim(3);
  const std::int64_t kernel = config_.kernel;
  const std::int64_t stride = config_.stride;
  const std::int64_t pad = config_.pad;
  const std::int64_t out_ch = config_.out_channels;
  const std::int64_t k_count = channels * kernel * kernel;
  const std::int64_t out_h = grad_output.dim(2);
  const std::int64_t out_w = grad_output.dim(3);
  const std::int64_t pixels = out_h * out_w;

  // dW += sum over samples n of dY_n [out, HW] * col_n^T [HW, K], with col_n
  // read in place: its row (c, kh, kw) is the (zero-bordered) image seen
  // through the window offset (kh, kw), element (oh, ow) at
  // (c * img_h + kh + oh * stride) * img_w + kw + ow * stride.
  const std::int64_t img_h = in_h + 2 * pad;
  const std::int64_t img_w = in_w + 2 * pad;
  const std::int64_t img_size = channels * img_h * img_w;
  std::vector<std::int64_t> offsets;
  offsets.reserve(static_cast<std::size_t>(k_count));
  for (std::int64_t c = 0; c < channels; ++c) {
    for (std::int64_t kh = 0; kh < kernel; ++kh) {
      for (std::int64_t kw = 0; kw < kernel; ++kw) {
        offsets.push_back((c * img_h + kh) * img_w + kw);
      }
    }
  }
  const float* images = input.data();
  if (pad > 0) {
    float* padded = workspace(t_padded, batch * img_size);
    std::fill(padded, padded + batch * img_size, 0.0f);
    for (std::int64_t n = 0; n < batch; ++n) {
      for (std::int64_t c = 0; c < channels; ++c) {
        for (std::int64_t h = 0; h < in_h; ++h) {
          copy_floats(images + ((n * channels + c) * in_h + h) * in_w, in_w,
                      padded + n * img_size + (c * img_h + h + pad) * img_w + pad);
        }
      }
    }
    images = padded;
  }
  // One call for the whole batch: each dW element adds its samples' dot
  // products in ascending sample order (STE: the gradient w.r.t. the
  // quantized weight flows to the shadow weight).
  const NtBatch dw(out_ch, k_count, batch, grad_output.data(),
                   NtRows{images, offsets.data(), out_h, out_w, stride * img_w, stride, img_size},
                   weight_.grad.data());

  // dCol = W^T [K, out] * dY [out, panel columns], then col2im per sample.
  // The dW column chunks come first in the same parallel_for, so that the
  // panels fill the workers they leave idle.
  Tensor grad_input = input_grad ? Tensor::uninitialized(input.shape()) : Tensor();
  const Panels p = input_grad ? panels(batch, pixels) : Panels{};
  parallel_for(dw.chunks() + p.count, [&](std::int64_t task) {
    if (task < dw.chunks()) {
      dw.run(task);
      return;
    }
    const std::int64_t first = (task - dw.chunks()) * p.samples;
    const std::int64_t samples = std::min(p.samples, batch - first);
    const std::int64_t cols = samples * pixels;
    // A one-sample panel of dY is that sample's block of grad_output.
    const float* dy = grad_output.data() + first * out_ch * pixels;
    if (samples > 1) {
      float* panel_dy = workspace(t_dy, out_ch * cols);
      for (std::int64_t s = 0; s < samples; ++s) {
        const float* src = grad_output.data() + (first + s) * out_ch * pixels;
        for (std::int64_t c = 0; c < out_ch; ++c) {
          copy_floats(src + c * pixels, pixels, panel_dy + c * cols + s * pixels);
        }
      }
      dy = panel_dy;
    }
    float* dcol = workspace(t_dcol, k_count * cols);
    gemm_tn(k_count, cols, out_ch, cached_effective_weight_.data(), dy, dcol, GemmOut::kWrite);
    // col2im adds overlapping windows, so the panel's samples are zeroed
    // first, here rather than serially for the whole batch.
    float* dx = grad_input.data() + first * channels * in_h * in_w;
    std::fill(dx, dx + samples * channels * in_h * in_w, 0.0f);
    for (std::int64_t s = 0; s < samples; ++s) {
      col2im(dcol + s * pixels, channels, in_h, in_w, kernel, stride, pad,
             dx + s * channels * in_h * in_w, cols);
    }
  });
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
            copy_floats(input + (c * height + oh + kh) * width + kw, out_w,
                        col + row * ld + oh * out_w);
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

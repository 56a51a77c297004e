#include "adaflow/nn/maxpool2d.hpp"

namespace adaflow::nn {

MaxPool2d::MaxPool2d(std::string name, std::int64_t kernel)
    : Layer(std::move(name)), kernel_(kernel) {
  require(kernel_ > 0, "maxpool kernel must be positive");
}

Shape MaxPool2d::output_shape(const Shape& input) const {
  if (input.size() != 4) {
    throw ShapeError("maxpool expects rank-4 input");
  }
  if (input[2] % kernel_ != 0 || input[3] % kernel_ != 0) {
    throw ShapeError("maxpool " + name() + " input dims must be divisible by kernel");
  }
  return Shape{input[0], input[1], input[2] / kernel_, input[3] / kernel_};
}

Tensor MaxPool2d::forward(Tensor input, bool training) {
  const Shape out_shape = output_shape(input.shape());
  Tensor output = Tensor::uninitialized(out_shape);
  if (training) {
    // Every entry is written below.
    argmax_.resize(static_cast<std::size_t>(output.size()));
    cached_input_shape_ = input.shape();
  }
  const std::int64_t batch = input.dim(0);
  const std::int64_t channels = input.dim(1);
  const std::int64_t in_h = input.dim(2);
  const std::int64_t in_w = input.dim(3);
  const std::int64_t out_h = out_shape[2];
  const std::int64_t out_w = out_shape[3];

  std::int64_t out_idx = 0;
  for (std::int64_t n = 0; n < batch; ++n) {
    for (std::int64_t c = 0; c < channels; ++c) {
      const float* plane = input.data() + (n * channels + c) * in_h * in_w;
      for (std::int64_t oh = 0; oh < out_h; ++oh) {
        for (std::int64_t ow = 0; ow < out_w; ++ow, ++out_idx) {
          float best = plane[(oh * kernel_) * in_w + ow * kernel_];
          std::int64_t best_idx = (oh * kernel_) * in_w + ow * kernel_;
          for (std::int64_t kh = 0; kh < kernel_; ++kh) {
            for (std::int64_t kw = 0; kw < kernel_; ++kw) {
              const std::int64_t idx = (oh * kernel_ + kh) * in_w + (ow * kernel_ + kw);
              if (plane[idx] > best) {
                best = plane[idx];
                best_idx = idx;
              }
            }
          }
          output[out_idx] = best;
          if (training) {
            argmax_[static_cast<std::size_t>(out_idx)] = (n * channels + c) * in_h * in_w + best_idx;
          }
        }
      }
    }
  }
  return output;
}

Tensor MaxPool2d::backward(const Tensor& grad_output) {
  require(!argmax_.empty(), "maxpool backward without forward");
  check_grad_output(*this, output_shape(cached_input_shape_), grad_output);
  Tensor grad_input(cached_input_shape_);  // zeroed: the gradient scatters into it
  for (std::int64_t i = 0; i < grad_output.size(); ++i) {
    grad_input[argmax_[static_cast<std::size_t>(i)]] += grad_output[i];
  }
  return grad_input;
}

}  // namespace adaflow::nn

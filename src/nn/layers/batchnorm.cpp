#include "adaflow/nn/batchnorm.hpp"

#include <cmath>

#include "adaflow/nn/gemm.hpp"

namespace adaflow::nn {

namespace {
// Iterates (outer, channel, inner) where rank-4 maps to (N, C, H*W) and
// rank-2 maps to (N, C, 1).
struct Geometry {
  std::int64_t outer;
  std::int64_t channels;
  std::int64_t inner;
};

Geometry geometry(const Shape& shape, std::int64_t channels, const std::string& name) {
  if (shape.size() == 4) {
    if (shape[1] != channels) {
      throw ShapeError("batchnorm " + name + " channel mismatch");
    }
    return {shape[0], channels, shape[2] * shape[3]};
  }
  if (shape.size() == 2) {
    if (shape[1] != channels) {
      throw ShapeError("batchnorm " + name + " feature mismatch");
    }
    return {shape[0], channels, 1};
  }
  throw ShapeError("batchnorm expects rank-2 or rank-4 input");
}
}  // namespace

BatchNorm::BatchNorm(std::string name, std::int64_t channels, float momentum, float eps)
    : Layer(std::move(name)), channels_(channels), momentum_(momentum), eps_(eps) {
  require(channels > 0, "batchnorm channels must be positive");
  gamma_ = Param(Tensor::full(Shape{channels}, 1.0f));
  beta_ = Param(Tensor::zeros(Shape{channels}));
  running_mean_.assign(static_cast<std::size_t>(channels), 0.0f);
  running_var_.assign(static_cast<std::size_t>(channels), 1.0f);
}

Shape BatchNorm::output_shape(const Shape& input) const {
  geometry(input, channels_, name());
  return input;
}

AffineChannel BatchNorm::inference_affine() const {
  AffineChannel affine;
  affine.scale.resize(static_cast<std::size_t>(channels_));
  affine.shift.resize(static_cast<std::size_t>(channels_));
  for (std::int64_t c = 0; c < channels_; ++c) {
    const auto i = static_cast<std::size_t>(c);
    const float inv_std = 1.0f / std::sqrt(running_var_[i] + eps_);
    affine.scale[i] = gamma_.value[c] * inv_std;
    affine.shift[i] = beta_.value[c] - gamma_.value[c] * running_mean_[i] * inv_std;
  }
  return affine;
}

void BatchNorm::set_statistics(std::vector<float> mean, std::vector<float> var) {
  require(static_cast<std::int64_t>(mean.size()) == channels_ &&
              static_cast<std::int64_t>(var.size()) == channels_,
          "batchnorm statistics size mismatch");
  running_mean_ = std::move(mean);
  running_var_ = std::move(var);
}

void BatchNorm::set_affine(Tensor gamma, Tensor beta) {
  require(gamma.size() == channels_ && beta.size() == channels_, "batchnorm affine size mismatch");
  gamma_.value = std::move(gamma);
  gamma_.grad = Tensor(Shape{channels_});
  beta_.value = std::move(beta);
  beta_.grad = Tensor(Shape{channels_});
}

Tensor BatchNorm::forward(Tensor input, bool training) {
  const Geometry g = geometry(input.shape(), channels_, name());
  // Every pass below is element-wise, so the output overwrites the input.
  float* data = input.data();

  if (!training) {
    const AffineChannel affine = inference_affine();
    for (std::int64_t n = 0; n < g.outer; ++n) {
      for (std::int64_t c = 0; c < g.channels; ++c) {
        const auto ci = static_cast<std::size_t>(c);
        float* x = data + (n * g.channels + c) * g.inner;
        for (std::int64_t i = 0; i < g.inner; ++i) {
          x[i] = affine.scale[ci] * x[i] + affine.shift[ci];
        }
      }
    }
    return input;
  }

  const double count = static_cast<double>(g.outer * g.inner);
  if (cached_normalized_.shape() != input.shape()) {
    cached_normalized_ = Tensor::uninitialized(input.shape());
  } else {
    poison_uninitialized(cached_normalized_.data(), cached_normalized_.size());
  }
  cached_batch_std_.assign(static_cast<std::size_t>(channels_), 1.0f);
  cached_per_channel_ = g.outer * g.inner;

  std::vector<double> sum(static_cast<std::size_t>(channels_));
  std::vector<double> sq_sum(static_cast<std::size_t>(channels_));
  channel_moments(g.outer, g.channels, g.inner, data, sum.data(), sq_sum.data());

  for (std::int64_t c = 0; c < g.channels; ++c) {
    const auto ci = static_cast<std::size_t>(c);
    const double mean = sum[ci] / count;
    const double var = sq_sum[ci] / count - mean * mean;
    const float std_dev = static_cast<float>(std::sqrt(var + eps_));
    cached_batch_std_[ci] = std_dev;

    running_mean_[ci] = (1.0f - momentum_) * running_mean_[ci] + momentum_ * static_cast<float>(mean);
    running_var_[ci] = (1.0f - momentum_) * running_var_[ci] + momentum_ * static_cast<float>(var);

    const float mean_f = static_cast<float>(mean);
    const float gamma = gamma_.value[c];
    const float beta = beta_.value[c];
    for (std::int64_t n = 0; n < g.outer; ++n) {
      float* x = data + (n * g.channels + c) * g.inner;
      float* norm = cached_normalized_.data() + (n * g.channels + c) * g.inner;
      for (std::int64_t i = 0; i < g.inner; ++i) {
        const float x_hat = (x[i] - mean_f) / std_dev;
        norm[i] = x_hat;
        x[i] = gamma * x_hat + beta;
      }
    }
  }
  return input;
}

Tensor BatchNorm::backward(const Tensor& grad_output) {
  require(!cached_normalized_.empty(), "batchnorm backward without forward");
  check_grad_output(*this, cached_normalized_.shape(), grad_output);
  const Geometry g = geometry(grad_output.shape(), channels_, name());
  Tensor grad_input = Tensor::uninitialized(grad_output.shape());
  const double count = static_cast<double>(cached_per_channel_);

  std::vector<double> dgamma(static_cast<std::size_t>(channels_));
  std::vector<double> dbeta(static_cast<std::size_t>(channels_));
  channel_grads(g.outer, g.channels, g.inner, grad_output.data(), cached_normalized_.data(),
                dgamma.data(), dbeta.data());

  for (std::int64_t c = 0; c < g.channels; ++c) {
    const auto ci = static_cast<std::size_t>(c);
    gamma_.grad[c] += static_cast<float>(dgamma[ci]);
    beta_.grad[c] += static_cast<float>(dbeta[ci]);

    const float inv_std = 1.0f / cached_batch_std_[ci];
    const float k = gamma_.value[c] * inv_std;
    const float mean_dy = static_cast<float>(dbeta[ci] / count);
    const float mean_dy_x_hat = static_cast<float>(dgamma[ci] / count);
    for (std::int64_t n = 0; n < g.outer; ++n) {
      const float* dy = grad_output.data() + (n * g.channels + c) * g.inner;
      const float* x_hat = cached_normalized_.data() + (n * g.channels + c) * g.inner;
      float* dx = grad_input.data() + (n * g.channels + c) * g.inner;
      for (std::int64_t i = 0; i < g.inner; ++i) {
        dx[i] = k * (dy[i] - mean_dy - x_hat[i] * mean_dy_x_hat);
      }
    }
  }
  return grad_input;
}

}  // namespace adaflow::nn

#pragma once

// Reference implementations for the nn bitwise oracles: the original naive
// loops (one output at a time, one accumulator chain) and the value
// generators that stress the kernel contract. Files that include this must
// build with -ffp-contract=off, like adaflow_nn (tests/CMakeLists.txt).

#include <cmath>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "adaflow/common/rng.hpp"

namespace adaflow::nn::reference {

// ---- reference kernels (the pre-tiling implementations) -------------------

inline void ref_gemm_nn(std::int64_t m_count, std::int64_t n_count, std::int64_t k_count,
                        const float* a, const float* b, float* c) {
  for (std::int64_t m = 0; m < m_count; ++m) {
    float* c_row = c + m * n_count;
    const float* a_row = a + m * k_count;
    for (std::int64_t k = 0; k < k_count; ++k) {
      const float a_val = a_row[k];
      if (a_val == 0.0f) {
        continue;
      }
      const float* b_row = b + k * n_count;
      for (std::int64_t n = 0; n < n_count; ++n) {
        c_row[n] += a_val * b_row[n];
      }
    }
  }
}

inline void ref_gemm_nt(std::int64_t m_count, std::int64_t n_count, std::int64_t k_count,
                        const float* a, const float* b, float* c) {
  for (std::int64_t m = 0; m < m_count; ++m) {
    const float* a_row = a + m * k_count;
    float* c_row = c + m * n_count;
    for (std::int64_t n = 0; n < n_count; ++n) {
      const float* b_row = b + n * k_count;
      float acc = 0.0f;
      for (std::int64_t k = 0; k < k_count; ++k) {
        acc += a_row[k] * b_row[k];
      }
      c_row[n] += acc;
    }
  }
}

inline void ref_gemm_tn(std::int64_t m_count, std::int64_t n_count, std::int64_t k_count,
                        const float* a, const float* b, float* c) {
  for (std::int64_t k = 0; k < k_count; ++k) {
    const float* a_row = a + k * m_count;
    const float* b_row = b + k * n_count;
    for (std::int64_t m = 0; m < m_count; ++m) {
      const float a_val = a_row[m];
      if (a_val == 0.0f) {
        continue;
      }
      float* c_row = c + m * n_count;
      for (std::int64_t n = 0; n < n_count; ++n) {
        c_row[n] += a_val * b_row[n];
      }
    }
  }
}

inline void ref_im2col(const float* input, std::int64_t channels, std::int64_t height,
                       std::int64_t width, std::int64_t kernel, std::int64_t stride,
                       std::int64_t pad, float* col) {
  const std::int64_t out_h = (height + 2 * pad - kernel) / stride + 1;
  const std::int64_t out_w = (width + 2 * pad - kernel) / stride + 1;
  std::int64_t row = 0;
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

inline void ref_col2im(const float* col, std::int64_t channels, std::int64_t height,
                       std::int64_t width, std::int64_t kernel, std::int64_t stride,
                       std::int64_t pad, float* input) {
  const std::int64_t out_h = (height + 2 * pad - kernel) / stride + 1;
  const std::int64_t out_w = (width + 2 * pad - kernel) / stride + 1;
  std::int64_t row = 0;
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

// ---- MaxPool2d (the generic loop before the 2x2 path) ---------------------

/// Max pooling with kernel == stride over [N, C, H, W]: each window scanned
/// row by row, a later element winning only if strictly greater; argmax
/// holds the winner's flat input index.
inline void ref_maxpool_forward(const float* input, std::int64_t batch, std::int64_t channels,
                                std::int64_t in_h, std::int64_t in_w, std::int64_t kernel,
                                float* output, std::int64_t* argmax) {
  const std::int64_t out_h = in_h / kernel;
  const std::int64_t out_w = in_w / kernel;
  std::int64_t out_idx = 0;
  for (std::int64_t n = 0; n < batch; ++n) {
    for (std::int64_t c = 0; c < channels; ++c) {
      const float* plane = input + (n * channels + c) * in_h * in_w;
      for (std::int64_t oh = 0; oh < out_h; ++oh) {
        for (std::int64_t ow = 0; ow < out_w; ++ow, ++out_idx) {
          float best = plane[(oh * kernel) * in_w + ow * kernel];
          std::int64_t best_idx = (oh * kernel) * in_w + ow * kernel;
          for (std::int64_t kh = 0; kh < kernel; ++kh) {
            for (std::int64_t kw = 0; kw < kernel; ++kw) {
              const std::int64_t idx = (oh * kernel + kh) * in_w + (ow * kernel + kw);
              if (plane[idx] > best) {
                best = plane[idx];
                best_idx = idx;
              }
            }
          }
          output[out_idx] = best;
          argmax[out_idx] = (n * channels + c) * in_h * in_w + best_idx;
        }
      }
    }
  }
}

/// The input gradient: zeroed, then each output's gradient added at its
/// argmax.
inline void ref_maxpool_backward(const float* grad_output, const std::int64_t* argmax,
                                 std::int64_t out_count, std::int64_t in_count,
                                 float* grad_input) {
  for (std::int64_t i = 0; i < in_count; ++i) {
    grad_input[i] = 0.0f;
  }
  for (std::int64_t i = 0; i < out_count; ++i) {
    grad_input[argmax[i]] += grad_output[i];
  }
}

// ---- BatchNorm (the pre-lane implementation: one channel at a time) -------

/// Per-channel double sums over x[(n * channels + c) * inner + i].
inline void ref_channel_moments(std::int64_t outer, std::int64_t channels, std::int64_t inner,
                                const float* x, double* sum, double* sq_sum) {
  for (std::int64_t c = 0; c < channels; ++c) {
    double s = 0.0;
    double q = 0.0;
    for (std::int64_t n = 0; n < outer; ++n) {
      const float* in = x + (n * channels + c) * inner;
      for (std::int64_t i = 0; i < inner; ++i) {
        s += in[i];
        q += static_cast<double>(in[i]) * in[i];
      }
    }
    sum[c] = s;
    sq_sum[c] = q;
  }
}

inline void ref_channel_grads(std::int64_t outer, std::int64_t channels, std::int64_t inner,
                              const float* dy, const float* x_hat, double* dgamma,
                              double* dbeta) {
  for (std::int64_t c = 0; c < channels; ++c) {
    double g = 0.0;
    double b = 0.0;
    for (std::int64_t n = 0; n < outer; ++n) {
      const float* d = dy + (n * channels + c) * inner;
      const float* xh = x_hat + (n * channels + c) * inner;
      for (std::int64_t i = 0; i < inner; ++i) {
        g += static_cast<double>(d[i]) * xh[i];
        b += d[i];
      }
    }
    dgamma[c] = g;
    dbeta[c] = b;
  }
}

/// What one training forward + backward of BatchNorm produces.
struct BatchNormStep {
  std::vector<float> output;
  std::vector<float> grad_input;
  std::vector<float> grad_gamma;
  std::vector<float> grad_beta;
  std::vector<float> running_mean;
  std::vector<float> running_var;
};

/// BatchNorm's training forward and backward with the serial chains above,
/// from gamma / beta and running statistics as given, with the parameter
/// gradients starting at +0.
inline BatchNormStep ref_batchnorm_step(std::int64_t outer, std::int64_t channels,
                                        std::int64_t inner, const float* x, const float* dy,
                                        const std::vector<float>& gamma,
                                        const std::vector<float>& beta,
                                        std::vector<float> running_mean,
                                        std::vector<float> running_var, float momentum,
                                        float eps) {
  const std::size_t size = static_cast<std::size_t>(outer * channels * inner);
  const auto chans = static_cast<std::size_t>(channels);
  const double count = static_cast<double>(outer * inner);
  BatchNormStep r;
  r.output.resize(size);
  r.grad_input.resize(size);
  r.grad_gamma.assign(chans, 0.0f);
  r.grad_beta.assign(chans, 0.0f);
  std::vector<float> normalized(size);
  std::vector<float> std_dev(chans);
  std::vector<double> a(chans);
  std::vector<double> b(chans);

  ref_channel_moments(outer, channels, inner, x, a.data(), b.data());
  for (std::size_t c = 0; c < chans; ++c) {
    const double mean = a[c] / count;
    const double var = b[c] / count - mean * mean;
    std_dev[c] = static_cast<float>(std::sqrt(var + eps));
    running_mean[c] = (1.0f - momentum) * running_mean[c] + momentum * static_cast<float>(mean);
    running_var[c] = (1.0f - momentum) * running_var[c] + momentum * static_cast<float>(var);
    for (std::int64_t n = 0; n < outer; ++n) {
      const std::size_t at = (static_cast<std::size_t>(n) * chans + c) * inner;
      for (std::size_t i = at; i < at + static_cast<std::size_t>(inner); ++i) {
        normalized[i] = (x[i] - static_cast<float>(mean)) / std_dev[c];
        r.output[i] = gamma[c] * normalized[i] + beta[c];
      }
    }
  }

  ref_channel_grads(outer, channels, inner, dy, normalized.data(), a.data(), b.data());
  for (std::size_t c = 0; c < chans; ++c) {
    r.grad_gamma[c] += static_cast<float>(a[c]);
    r.grad_beta[c] += static_cast<float>(b[c]);
    const float k = gamma[c] * (1.0f / std_dev[c]);
    for (std::int64_t n = 0; n < outer; ++n) {
      const std::size_t at = (static_cast<std::size_t>(n) * chans + c) * inner;
      for (std::size_t i = at; i < at + static_cast<std::size_t>(inner); ++i) {
        r.grad_input[i] = k * (dy[i] - static_cast<float>(b[c] / count) -
                               normalized[i] * static_cast<float>(a[c] / count));
      }
    }
  }
  r.running_mean = std::move(running_mean);
  r.running_var = std::move(running_var);
  return r;
}

// ---- generators -----------------------------------------------------------

// Values that stress the contract: a mix of exact +0, -0, small and large
// magnitudes (so additions round), and repeated values.
inline std::vector<float> random_values(std::int64_t count, Rng& rng, double zero_frac) {
  std::vector<float> v(static_cast<std::size_t>(count));
  for (float& x : v) {
    const double u = rng.uniform();
    if (u < zero_frac / 2) {
      x = 0.0f;
    } else if (u < zero_frac) {
      x = -0.0f;
    } else if (u < zero_frac + 0.05) {
      x = rng.bernoulli(0.5) ? 0.25f : -0.25f;
    } else {
      x = static_cast<float>(rng.uniform(-1.0, 1.0) * std::pow(10.0, rng.uniform(-3.0, 3.0)));
    }
  }
  return v;
}

inline bool bitwise_equal(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

}  // namespace adaflow::nn::reference

#include "adaflow/nn/maxpool2d.hpp"

#include <algorithm>
#include <cstring>

#include "adaflow/common/parallel.hpp"

namespace adaflow::nn {

namespace {

// Four floats and four int32 lanes (GCC/Clang vector extensions; SSE2 on
// x86-64). A lane compares and selects exactly as the scalar code does.
typedef float F4 __attribute__((vector_size(16)));
typedef std::int32_t I4 __attribute__((vector_size(16)));
typedef std::uint8_t U4 __attribute__((vector_size(4)));

inline F4 load4(const float* p) {
  F4 v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

/// One 2x2 window step: the candidate v (window position \p at) replaces the
/// best so far only if it is strictly greater, as in the generic loop.
template <typename V, typename I>
inline void take_if_greater(V v, I at, V& best, I& winner) {
  const auto greater = v > best;
  winner = greater ? at : winner;
  best = greater ? v : best;
}

/// The 2x2 windows of \p rows output rows (planes * out_h), two input rows
/// at a time: four windows per step, their elements split into the
/// positions (0, 0), (0, 1), (1, 0), (1, 1) and compared in that order, so
/// ties and NaNs go as in the generic loop. No branch depends on the data.
/// kRecord: a backward follows, record the winners.
template <bool kRecord>
void pool_2x2(const float* in, std::int64_t rows, std::int64_t out_w, float* out,
              std::uint8_t* winner) {
  const std::int64_t in_w = 2 * out_w;
  for (std::int64_t row = 0; row < rows; ++row) {
    const float* r0 = in + 2 * row * in_w;
    const float* r1 = r0 + in_w;
    float* o = out + row * out_w;
    std::uint8_t* w = kRecord ? winner + row * out_w : nullptr;
    std::int64_t ow = 0;
    for (; ow + 4 <= out_w; ow += 4) {
      const F4 top_lo = load4(r0 + 2 * ow);
      const F4 top_hi = load4(r0 + 2 * ow + 4);
      const F4 bottom_lo = load4(r1 + 2 * ow);
      const F4 bottom_hi = load4(r1 + 2 * ow + 4);
      F4 best = __builtin_shufflevector(top_lo, top_hi, 0, 2, 4, 6);
      I4 at = {0, 0, 0, 0};
      take_if_greater(__builtin_shufflevector(top_lo, top_hi, 1, 3, 5, 7), I4{1, 1, 1, 1}, best,
                      at);
      take_if_greater(__builtin_shufflevector(bottom_lo, bottom_hi, 0, 2, 4, 6),
                      I4{2, 2, 2, 2}, best, at);
      take_if_greater(__builtin_shufflevector(bottom_lo, bottom_hi, 1, 3, 5, 7),
                      I4{3, 3, 3, 3}, best, at);
      std::memcpy(o + ow, &best, sizeof best);
      if constexpr (kRecord) {
        const U4 bytes = __builtin_convertvector(at, U4);
        std::memcpy(w + ow, &bytes, sizeof bytes);
      }
    }
    for (; ow < out_w; ++ow) {
      float best = r0[2 * ow];
      int at = 0;
      take_if_greater(r0[2 * ow + 1], 1, best, at);
      take_if_greater(r1[2 * ow], 2, best, at);
      take_if_greater(r1[2 * ow + 1], 3, best, at);
      o[ow] = best;
      if constexpr (kRecord) {
        w[ow] = static_cast<std::uint8_t>(at);
      }
    }
  }
}

/// The backward of pool_2x2 over \p rows output rows: every element of
/// each window is written, the winner with +0 + dy (the sum a zeroed
/// gradient would hold, so -0 becomes +0) and the others with +0.
void unpool_2x2(const float* grad, const std::uint8_t* winner, std::int64_t rows,
                std::int64_t out_w, float* grad_input) {
  const std::int64_t in_w = 2 * out_w;
  const F4 zero = {};
  for (std::int64_t row = 0; row < rows; ++row) {
    float* top = grad_input + 2 * row * in_w;
    float* bottom = top + in_w;
    const float* dy = grad + row * out_w;
    const std::uint8_t* w = winner + row * out_w;
    std::int64_t ow = 0;
    for (; ow + 4 <= out_w; ow += 4) {
      const F4 g = zero + load4(dy + ow);
      U4 bytes;
      std::memcpy(&bytes, w + ow, sizeof bytes);
      const I4 at = __builtin_convertvector(bytes, I4);
      const F4 p0 = at == 0 ? g : zero;
      const F4 p1 = at == 1 ? g : zero;
      const F4 p2 = at == 2 ? g : zero;
      const F4 p3 = at == 3 ? g : zero;
      const F4 rows4[4] = {
          __builtin_shufflevector(p0, p1, 0, 4, 1, 5), __builtin_shufflevector(p0, p1, 2, 6, 3, 7),
          __builtin_shufflevector(p2, p3, 0, 4, 1, 5), __builtin_shufflevector(p2, p3, 2, 6, 3, 7)};
      std::memcpy(top + 2 * ow, &rows4[0], 2 * sizeof(F4));
      std::memcpy(bottom + 2 * ow, &rows4[2], 2 * sizeof(F4));
    }
    for (; ow < out_w; ++ow) {
      const float g = 0.0f + dy[ow];
      top[2 * ow] = w[ow] == 0 ? g : 0.0f;
      top[2 * ow + 1] = w[ow] == 1 ? g : 0.0f;
      bottom[2 * ow] = w[ow] == 2 ? g : 0.0f;
      bottom[2 * ow + 1] = w[ow] == 3 ? g : 0.0f;
    }
  }
}

/// The same for any kernel, one window at a time, over \p rows output rows.
void pool_generic(const float* in, std::int64_t rows, std::int64_t kernel, std::int64_t out_w,
                  float* out, std::uint8_t* winner) {
  const std::int64_t in_w = kernel * out_w;
  std::int64_t i = 0;
  for (std::int64_t row = 0; row < rows; ++row) {
    const float* window_row = in + row * kernel * in_w;
    for (std::int64_t ow = 0; ow < out_w; ++ow, ++i) {
      const float* window = window_row + ow * kernel;
      float best = window[0];
      std::int64_t at = 0;
      for (std::int64_t kh = 0; kh < kernel; ++kh) {
        for (std::int64_t kw = 0; kw < kernel; ++kw) {
          if (window[kh * in_w + kw] > best) {
            best = window[kh * in_w + kw];
            at = kh * kernel + kw;
          }
        }
      }
      out[i] = best;
      if (winner != nullptr) {
        winner[i] = static_cast<std::uint8_t>(at);
      }
    }
  }
}

/// Planes per parallel task: pool1 of the scale-8 CNV at batch 32 has 256.
constexpr std::int64_t kPlanesPerTask = 16;

std::int64_t plane_blocks(std::int64_t planes) {
  return (planes + kPlanesPerTask - 1) / kPlanesPerTask;
}

}  // namespace

MaxPool2d::MaxPool2d(std::string name, std::int64_t kernel)
    : Layer(std::move(name)), kernel_(kernel) {
  require(kernel_ > 0 && kernel_ <= kMaxKernel,
          "maxpool kernel must be in [1, " + std::to_string(kMaxKernel) + "]");
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
  std::uint8_t* winner = nullptr;
  if (training) {
    // Every entry is written below.
    winner_.resize(static_cast<std::size_t>(output.size()));
    winner = winner_.data();
    cached_input_shape_ = input.shape();
  }
  // The planes are independent: blocks of them run as parallel tasks.
  const std::int64_t planes = out_shape[0] * out_shape[1];
  const std::int64_t in_plane = input.dim(2) * input.dim(3);
  const std::int64_t out_h = out_shape[2];
  const std::int64_t out_w = out_shape[3];
  parallel_for(plane_blocks(planes), [&](std::int64_t block) {
    const std::int64_t first = block * kPlanesPerTask;
    const std::int64_t rows = std::min(kPlanesPerTask, planes - first) * out_h;
    const float* in = input.data() + first * in_plane;
    float* out = output.data() + first * out_h * out_w;
    std::uint8_t* win = training ? winner + first * out_h * out_w : nullptr;
    if (kernel_ == 2 && training) {
      pool_2x2<true>(in, rows, out_w, out, win);
    } else if (kernel_ == 2) {
      pool_2x2<false>(in, rows, out_w, out, win);
    } else {
      pool_generic(in, rows, kernel_, out_w, out, win);
    }
  });
  return output;
}

Tensor MaxPool2d::backward(const Tensor& grad_output) {
  require(!winner_.empty(), "maxpool backward without forward");
  check_grad_output(*this, output_shape(cached_input_shape_), grad_output);
  // The windows tile the input, so every input element is written once:
  // the winner gets +0 + dy (the sum a zeroed gradient would hold), the
  // others +0.
  Tensor grad_input = Tensor::uninitialized(cached_input_shape_);
  const Shape& in = cached_input_shape_;
  const std::int64_t k = kernel_;
  const std::int64_t in_w = in[3];
  const std::int64_t out_h = in[2] / k;
  const std::int64_t out_w = in_w / k;
  const std::int64_t planes = in[0] * in[1];
  parallel_for(plane_blocks(planes), [&](std::int64_t block) {
    const std::int64_t first = block * kPlanesPerTask;
    const std::int64_t rows = std::min(kPlanesPerTask, planes - first) * out_h;
    const float* dy_block = grad_output.data() + first * out_h * out_w;
    const std::uint8_t* win_block = winner_.data() + first * out_h * out_w;
    float* dx_block = grad_input.data() + first * in[2] * in_w;
    if (k == 2) {
      unpool_2x2(dy_block, win_block, rows, out_w, dx_block);
      return;
    }
    for (std::int64_t row = 0; row < rows; ++row) {
      float* dx = dx_block + row * k * in_w;
      const float* dy = dy_block + row * out_w;
      const std::uint8_t* at = win_block + row * out_w;
      for (std::int64_t ow = 0; ow < out_w; ++ow) {
        const float g = 0.0f + dy[ow];
        for (std::int64_t kh = 0; kh < k; ++kh) {
          for (std::int64_t kw = 0; kw < k; ++kw) {
            dx[kh * in_w + ow * k + kw] = kh * k + kw == at[ow] ? g : 0.0f;
          }
        }
      }
    }
  });
  return grad_input;
}

}  // namespace adaflow::nn

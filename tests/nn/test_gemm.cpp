// Bit-exact oracle tests for the nn kernels. The reference functions below
// are the original naive loops (one output at a time, one accumulator chain).
// The optimised kernels may tile and vectorise but must reproduce every
// float bit for bit, signed zeros included: the library cache is keyed on
// the model topology, so numeric drift would silently serve stale tables.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "adaflow/common/rng.hpp"
#include "adaflow/nn/conv2d.hpp"
#include "adaflow/nn/gemm.hpp"
#include "adaflow/nn/quant.hpp"

namespace adaflow::nn {
namespace {

// ---- reference kernels (the pre-tiling implementations) -------------------

void ref_gemm_nn(std::int64_t m_count, std::int64_t n_count, std::int64_t k_count,
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

void ref_gemm_nt(std::int64_t m_count, std::int64_t n_count, std::int64_t k_count,
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

void ref_gemm_tn(std::int64_t m_count, std::int64_t n_count, std::int64_t k_count,
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

void ref_im2col(const float* input, std::int64_t channels, std::int64_t height,
                std::int64_t width, std::int64_t kernel, std::int64_t stride, std::int64_t pad,
                float* col) {
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

void ref_col2im(const float* col, std::int64_t channels, std::int64_t height, std::int64_t width,
                std::int64_t kernel, std::int64_t stride, std::int64_t pad, float* input) {
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

std::int64_t ref_quantize_act_level(float x, float scale, int bits) {
  const std::int64_t max_level = act_level_max(bits);
  const float r = std::nearbyint(x / scale);
  if (r <= 0.0f) {
    return 0;
  }
  const auto level = static_cast<std::int64_t>(r);
  return level > max_level ? max_level : level;
}

float ref_quantize_act(float x, float scale, int bits) {
  return static_cast<float>(ref_quantize_act_level(x, scale, bits)) * scale;
}

// ---- generators -----------------------------------------------------------

// Values that stress the contract: a mix of exact +0, -0, small and large
// magnitudes (so additions round), and repeated values.
std::vector<float> random_values(std::int64_t count, Rng& rng, double zero_frac) {
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

bool bitwise_equal(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

struct GemmShape {
  std::int64_t m;
  std::int64_t n;
  std::int64_t k;
};

// Tile remainders in every dimension, N smaller than a tile, K = 1, and the
// CNV conv1 geometry the kernels are tuned for.
std::vector<GemmShape> gemm_shapes(Rng& rng) {
  std::vector<GemmShape> shapes = {{1, 1, 1},   {1, 3, 1},    {8, 784, 72}, {8, 72, 784},
                                   {72, 784, 8}, {7, 33, 5},  {9, 31, 1},   {3, 2, 17},
                                   {16, 5, 300}, {13, 65, 11}, {32, 10, 64}, {2, 100, 3}};
  for (int i = 0; i < 24; ++i) {
    shapes.push_back({rng.uniform_int(1, 40), rng.uniform_int(1, 140), rng.uniform_int(1, 90)});
  }
  return shapes;
}

enum class Kind { kNN, kNT, kTN };

void check_gemm(Kind kind, double zero_frac, std::uint64_t seed) {
  Rng rng(seed);
  for (const GemmShape& s : gemm_shapes(rng)) {
    // A is [M,K] (NN, NT) or [K,M] (TN); B is [K,N] (NN, TN) or [N,K] (NT).
    const std::vector<float> a = random_values(s.m * s.k, rng, zero_frac);
    const std::vector<float> b = random_values(s.k * s.n, rng, zero_frac);
    // A non-zero C checks that kernels accumulate into it; the -0 entries
    // check that skipped products never turn -0 into +0.
    const std::vector<float> c0 = random_values(s.m * s.n, rng, 0.3);
    std::vector<float> want = c0;
    std::vector<float> got = c0;
    switch (kind) {
      case Kind::kNN:
        ref_gemm_nn(s.m, s.n, s.k, a.data(), b.data(), want.data());
        gemm_nn(s.m, s.n, s.k, a.data(), b.data(), got.data());
        break;
      case Kind::kNT:
        ref_gemm_nt(s.m, s.n, s.k, a.data(), b.data(), want.data());
        gemm_nt(s.m, s.n, s.k, a.data(), b.data(), got.data());
        break;
      case Kind::kTN:
        ref_gemm_tn(s.m, s.n, s.k, a.data(), b.data(), want.data());
        gemm_tn(s.m, s.n, s.k, a.data(), b.data(), got.data());
        break;
    }
    EXPECT_TRUE(bitwise_equal(want, got)) << "M=" << s.m << " N=" << s.n << " K=" << s.k
                                          << " zero_frac=" << zero_frac;
  }
}

TEST(GemmOracle, NNMatchesReferenceBitwise) {
  check_gemm(Kind::kNN, 0.0, 1);
  check_gemm(Kind::kNN, 0.4, 2);
}

TEST(GemmOracle, NTMatchesReferenceBitwise) {
  check_gemm(Kind::kNT, 0.0, 3);
  check_gemm(Kind::kNT, 0.4, 4);
}

TEST(GemmOracle, TNMatchesReferenceBitwise) {
  check_gemm(Kind::kTN, 0.0, 5);
  check_gemm(Kind::kTN, 0.4, 6);
}

TEST(GemmOracle, SkippedZeroWeightKeepsNegativeZero) {
  // -0 + (0 * 1) would be +0; a skipped zero weight must leave -0 alone.
  const float a[2] = {0.0f, -0.0f};
  const float b[2] = {1.0f, 1.0f};
  float c[1] = {-0.0f};
  gemm_nn(1, 1, 2, a, b, c);
  EXPECT_TRUE(std::signbit(c[0]));
  gemm_tn(1, 1, 2, a, b, c);
  EXPECT_TRUE(std::signbit(c[0]));
  // gemm_nt starts its dot product from +0, so -0 * 1 sums to +0 and
  // -0 + +0 is +0.
  gemm_nt(1, 1, 2, a, b, c);
  EXPECT_FALSE(std::signbit(c[0]));
}

struct ConvGeometry {
  std::int64_t channels;
  std::int64_t height;
  std::int64_t width;
  std::int64_t kernel;
  std::int64_t stride;
  std::int64_t pad;
};

TEST(Im2colOracle, MatchesReferenceBitwise) {
  const std::vector<ConvGeometry> geometries = {
      {3, 32, 32, 3, 1, 0}, {8, 30, 30, 3, 1, 0}, {2, 5, 7, 3, 1, 0}, {1, 3, 3, 3, 1, 0},
      {2, 6, 6, 1, 1, 0},   {3, 8, 8, 3, 1, 1},   {2, 9, 7, 3, 2, 0}, {2, 9, 9, 3, 2, 1},
      {1, 4, 4, 2, 2, 0},   {4, 11, 6, 5, 3, 2},
  };
  Rng rng(7);
  for (const ConvGeometry& g : geometries) {
    const std::int64_t out_h = (g.height + 2 * g.pad - g.kernel) / g.stride + 1;
    const std::int64_t out_w = (g.width + 2 * g.pad - g.kernel) / g.stride + 1;
    const std::int64_t rows = g.channels * g.kernel * g.kernel;
    const std::vector<float> image = random_values(g.channels * g.height * g.width, rng, 0.2);

    std::vector<float> want(static_cast<std::size_t>(rows * out_h * out_w), 9.0f);
    std::vector<float> got = want;
    ref_im2col(image.data(), g.channels, g.height, g.width, g.kernel, g.stride, g.pad,
               want.data());
    im2col(image.data(), g.channels, g.height, g.width, g.kernel, g.stride, g.pad, got.data());
    EXPECT_TRUE(bitwise_equal(want, got)) << "im2col k=" << g.kernel << " s=" << g.stride
                                          << " p=" << g.pad;

    const std::vector<float> col = random_values(rows * out_h * out_w, rng, 0.2);
    const std::vector<float> base = random_values(g.channels * g.height * g.width, rng, 0.3);
    std::vector<float> want_img = base;
    std::vector<float> got_img = base;
    ref_col2im(col.data(), g.channels, g.height, g.width, g.kernel, g.stride, g.pad,
               want_img.data());
    col2im(col.data(), g.channels, g.height, g.width, g.kernel, g.stride, g.pad, got_img.data());
    EXPECT_TRUE(bitwise_equal(want_img, got_img)) << "col2im k=" << g.kernel << " s=" << g.stride
                                                  << " p=" << g.pad;
  }
}

TEST(QuantActOracle, BranchFreeRoundingMatchesNearbyint) {
  // Every float step around the rounding ties of each level, then a log-spaced
  // sweep over magnitudes from 1e-38 up of both signs.
  const float scales[] = {0.5f, 0.25f, 1.0f / 3.0f, 1.7f};
  std::int64_t checked = 0;
  for (float s : scales) {
    for (int bits = 1; bits <= 8; ++bits) {
      for (float level = -2.0f; level <= static_cast<float>(act_level_max(bits)) + 2.0f;
           level += 0.5f) {
        float x = level * s;
        for (int step = 0; step < 64; ++step) {
          x = std::nextafter(x, -INFINITY);
        }
        for (int step = 0; step < 128; ++step, x = std::nextafter(x, INFINITY)) {
          const float want = ref_quantize_act(x, s, bits);
          const float got = quantize_act(x, s, bits);
          ASSERT_EQ(std::memcmp(&want, &got, sizeof want), 0) << x << " s=" << s << " b=" << bits;
          ASSERT_EQ(quantize_act_level(x, s, bits), ref_quantize_act_level(x, s, bits));
          ++checked;
        }
      }
    }
    for (float sign : {1.0f, -1.0f}) {
      // The reference casts round(x / s) to int64, which is undefined from
      // 2^63 on; the sweep stops well short of that.
      for (float x = 1e-38f; x / s < 0x1p62f; x *= 1.01f) {
        const float want = ref_quantize_act(sign * x, s, 2);
        const float got = quantize_act(sign * x, s, 2);
        ASSERT_EQ(std::memcmp(&want, &got, sizeof want), 0) << sign * x << " s=" << s;
        ++checked;
      }
    }
  }
  for (float zero : {0.0f, -0.0f}) {
    const float got = quantize_act(zero, 0.5f, 2);
    EXPECT_FALSE(std::signbit(got));
    EXPECT_EQ(got, 0.0f);
  }
  EXPECT_GT(checked, 100000);
}

}  // namespace
}  // namespace adaflow::nn

// Bit-exact oracle tests for the nn kernels, against the naive loops in
// reference_kernels.hpp (one output at a time, one accumulator chain). The
// NT kernel reads B as row views; it is checked on contiguous rows (the
// gemm_nt entry point), on the strided views of a conv weight gradient and
// as a batch over samples (NtBatch); the write mode of each kernel is
// checked against zero-filling C and accumulating. The
// optimised kernels may tile and vectorise but must reproduce every float
// bit for bit, signed zeros included, in every ISA variant: the library
// cache is keyed on the model topology, so numeric drift would silently
// serve stale tables.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "adaflow/common/rng.hpp"
#include "adaflow/nn/conv2d.hpp"
#include "adaflow/nn/gemm.hpp"
#include "adaflow/nn/quant.hpp"
#include "nn/reference_kernels.hpp"

namespace adaflow::nn {
namespace {

using namespace reference;

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

struct GemmShape {
  std::int64_t m;
  std::int64_t n;
  std::int64_t k;
};

// Tile remainders in every dimension, N smaller than a tile, K = 1, the CNV
// conv1 geometry, N at the edges of 4- and 8-lane tiles, and the
// multi-sample panels of conv4 (N = 32 * 9) and conv5 (N = 32 * 1).
std::vector<GemmShape> gemm_shapes(Rng& rng) {
  std::vector<GemmShape> shapes = {{1, 1, 1},   {1, 3, 1},    {8, 784, 72}, {8, 72, 784},
                                   {72, 784, 8}, {7, 33, 5},  {9, 31, 1},   {3, 2, 17},
                                   {16, 5, 300}, {13, 65, 11}, {32, 10, 64}, {2, 100, 3},
                                   {32, 288, 144}, {32, 32, 288}, {144, 288, 32}, {288, 32, 32},
                                   {32, 144, 9}, {32, 288, 1}};
  for (std::int64_t n : {7, 8, 9, 15, 17, 31, 33, 63, 65, 288}) {
    shapes.push_back({5, n, 19});
    shapes.push_back({17, n, 4});
  }
  for (int i = 0; i < 24; ++i) {
    shapes.push_back({rng.uniform_int(1, 40), rng.uniform_int(1, 140), rng.uniform_int(1, 90)});
  }
  return shapes;
}

enum class Kind { kNN, kNT, kTN };

/// Checks one kernel against its reference over gemm_shapes(). With
/// \p kernels null it runs the public entry points (the selected variant).
/// kWrite is checked against zero-filling C and accumulating, on a C that
/// starts as NaN, so an element the kernel does not store shows.
void check_gemm(const GemmKernels* kernels, Kind kind, double zero_frac, std::uint64_t seed,
                GemmOut out = GemmOut::kAccumulate) {
  Rng rng(seed);
  const GemmKernels& variant = kernels != nullptr ? *kernels : gemm_kernels();
  for (const GemmShape& s : gemm_shapes(rng)) {
    // A is [M,K] (NN, NT) or [K,M] (TN); B is [K,N] (NN, TN) or [N,K] (NT).
    const std::vector<float> a = random_values(s.m * s.k, rng, zero_frac);
    const std::vector<float> b = random_values(s.k * s.n, rng, zero_frac);
    // A non-zero C checks that kernels accumulate into it; the -0 entries
    // check that skipped products never turn -0 into +0.
    const std::vector<float> c0 = random_values(s.m * s.n, rng, 0.3);
    std::vector<float> want = c0;
    std::vector<float> got = c0;
    if (out == GemmOut::kWrite) {
      want.assign(want.size(), 0.0f);
      got.assign(got.size(), std::numeric_limits<float>::quiet_NaN());
    }
    switch (kind) {
      case Kind::kNN:
        ref_gemm_nn(s.m, s.n, s.k, a.data(), b.data(), want.data());
        (kernels != nullptr ? kernels->nn : gemm_nn)(s.m, s.n, s.k, a.data(), b.data(),
                                                     got.data(), out);
        break;
      case Kind::kNT:
        ref_gemm_nt(s.m, s.n, s.k, a.data(), b.data(), want.data());
        gemm_nt(variant, s.m, s.n, s.k, a.data(), b.data(), got.data(), out);
        break;
      case Kind::kTN:
        ref_gemm_tn(s.m, s.n, s.k, a.data(), b.data(), want.data());
        (kernels != nullptr ? kernels->tn : gemm_tn)(s.m, s.n, s.k, a.data(), b.data(),
                                                     got.data(), out);
        break;
    }
    EXPECT_TRUE(bitwise_equal(want, got))
        << variant.isa << " M=" << s.m << " N=" << s.n << " K=" << s.k
        << " zero_frac=" << zero_frac << (out == GemmOut::kWrite ? " write" : " accumulate");
  }
}

/// B of a conv weight gradient, read in place: row (c, kh, kw) of the view
/// over a [C, H, W] image, element (oh, ow) at (c * H + kh + oh * stride) * W
/// + kw + ow * stride.
struct ViewGeometry {
  std::int64_t channels;
  std::int64_t height;
  std::int64_t width;
  std::int64_t kernel;
  std::int64_t stride;
};

/// NtBatch on views against ref_gemm_nt, one sample at a time in ascending
/// order, on the same rows copied out by ref_im2col: the CNV conv1 geometry
/// (28-wide rows), strides 2 and 3, non-square images, a 1x1 view and 1x1
/// kernels, for one sample and for three images one after another.
void check_nt_views(const GemmKernels& kernels, std::uint64_t seed) {
  const std::vector<ViewGeometry> geometries = {
      {8, 30, 30, 3, 1}, {3, 9, 7, 3, 2}, {2, 5, 13, 1, 1}, {4, 3, 3, 3, 1},
      {2, 11, 6, 5, 3},  {5, 4, 9, 2, 2}, {1, 6, 6, 1, 3},
  };
  Rng rng(seed);
  for (const ViewGeometry& g : geometries) {
    const std::int64_t out_h = (g.height - g.kernel) / g.stride + 1;
    const std::int64_t out_w = (g.width - g.kernel) / g.stride + 1;
    const std::int64_t n_count = g.channels * g.kernel * g.kernel;
    const std::int64_t k_count = out_h * out_w;
    const std::int64_t image_size = g.channels * g.height * g.width;
    std::vector<std::int64_t> off;
    for (std::int64_t c = 0; c < g.channels; ++c) {
      for (std::int64_t kh = 0; kh < g.kernel; ++kh) {
        for (std::int64_t kw = 0; kw < g.kernel; ++kw) {
          off.push_back((c * g.height + kh) * g.width + kw);
        }
      }
    }
    for (const std::int64_t samples : {1, 3}) {
      const std::vector<float> images = random_values(samples * image_size, rng, 0.2);
      const NtRows view{images.data(), off.data(), out_h,     out_w,
                        g.stride * g.width, g.stride, image_size};
      std::vector<float> rows(static_cast<std::size_t>(samples * n_count * k_count));
      for (std::int64_t s = 0; s < samples; ++s) {
        ref_im2col(images.data() + s * image_size, g.channels, g.height, g.width, g.kernel,
                   g.stride, 0, rows.data() + s * n_count * k_count);
      }
      for (const std::int64_t m_count : {1, 8, 9, 32}) {
        const std::vector<float> a = random_values(samples * m_count * k_count, rng, 0.3);
        const std::vector<float> c0 = random_values(m_count * n_count, rng, 0.3);
        std::vector<float> want = c0;
        std::vector<float> got = c0;
        for (std::int64_t s = 0; s < samples; ++s) {
          ref_gemm_nt(m_count, n_count, k_count, a.data() + s * m_count * k_count,
                      rows.data() + s * n_count * k_count, want.data());
        }
        NtBatch(kernels, m_count, n_count, samples, a.data(), view, got.data()).run_all();
        EXPECT_TRUE(bitwise_equal(want, got))
            << kernels.isa << " view M=" << m_count << " samples=" << samples
            << " C=" << g.channels << " H=" << g.height << " W=" << g.width
            << " k=" << g.kernel << " s=" << g.stride;
      }
    }
  }
}

/// NtBatch on contiguous per-sample B against the serial reference: every
/// sample's sums from +0, added into C in ascending sample order. M covers
/// every row count up to 17 (pruned widths, one and two row tiles) and 32,
/// N a conv0-like 27 (a 3-column tail), a single column and whole chunks;
/// the values include -0. Chunks run in reverse order, as parallel workers
/// may, and in write mode C starts as NaN.
void check_nt_batch(const GemmKernels& kernels, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::int64_t> m_counts;
  for (std::int64_t m = 1; m <= 17; ++m) {
    m_counts.push_back(m);
  }
  m_counts.push_back(32);
  for (const std::int64_t m_count : m_counts) {
    for (const std::int64_t n_count : {27, 1, 16}) {
      for (const std::int64_t samples : {1, 3, 32}) {
        const std::int64_t k_count = rng.uniform_int(1, 12);
        const std::vector<float> a = random_values(samples * m_count * k_count, rng, 0.3);
        const std::vector<float> b = random_values(samples * n_count * k_count, rng, 0.3);
        std::vector<std::int64_t> off;
        for (std::int64_t j = 0; j < n_count; ++j) {
          off.push_back(j * k_count);
        }
        const NtRows view{b.data(), off.data(), 1, k_count, k_count, 1, n_count * k_count};
        for (const GemmOut out : {GemmOut::kAccumulate, GemmOut::kWrite}) {
          std::vector<float> want = random_values(m_count * n_count, rng, 0.3);
          std::vector<float> got = want;
          if (out == GemmOut::kWrite) {
            want.assign(want.size(), 0.0f);
            got.assign(got.size(), std::numeric_limits<float>::quiet_NaN());
          }
          for (std::int64_t s = 0; s < samples; ++s) {
            ref_gemm_nt(m_count, n_count, k_count, a.data() + s * m_count * k_count,
                        b.data() + s * n_count * k_count, want.data());
          }
          const NtBatch batch(kernels, m_count, n_count, samples, a.data(), view, got.data(),
                              out);
          for (std::int64_t i = batch.chunks(); i-- > 0;) {
            batch.run(i);
          }
          EXPECT_TRUE(bitwise_equal(want, got))
              << kernels.isa << " batch M=" << m_count << " N=" << n_count
              << " K=" << k_count << " samples=" << samples
              << (out == GemmOut::kWrite ? " write" : " accumulate");
        }
      }
    }
  }
}

void check_all_kinds(const GemmKernels* kernels) {
  check_gemm(kernels, Kind::kNN, 0.0, 1);
  check_gemm(kernels, Kind::kNN, 0.4, 2);
  check_gemm(kernels, Kind::kNT, 0.0, 3);
  check_gemm(kernels, Kind::kNT, 0.4, 4);
  check_gemm(kernels, Kind::kTN, 0.0, 5);
  check_gemm(kernels, Kind::kTN, 0.4, 6);
  check_gemm(kernels, Kind::kNN, 0.4, 8, GemmOut::kWrite);
  check_gemm(kernels, Kind::kNT, 0.4, 9, GemmOut::kWrite);
  check_gemm(kernels, Kind::kTN, 0.4, 10, GemmOut::kWrite);
  check_nt_views(*kernels, 7);
  check_nt_batch(*kernels, 11);
}

TEST(GemmOracle, NNMatchesReferenceBitwise) {
  check_gemm(nullptr, Kind::kNN, 0.0, 1);
  check_gemm(nullptr, Kind::kNN, 0.4, 2);
}

TEST(GemmOracle, NTMatchesReferenceBitwise) {
  check_gemm(nullptr, Kind::kNT, 0.0, 3);
  check_gemm(nullptr, Kind::kNT, 0.4, 4);
}

TEST(GemmOracle, NTOnStridedViewsMatchesReferenceBitwise) { check_nt_views(gemm_kernels(), 7); }

TEST(GemmOracle, TNMatchesReferenceBitwise) {
  check_gemm(nullptr, Kind::kTN, 0.0, 5);
  check_gemm(nullptr, Kind::kTN, 0.4, 6);
}

TEST(GemmOracle, WriteModeMatchesZeroFillAndAccumulateBitwise) {
  check_gemm(nullptr, Kind::kNN, 0.4, 8, GemmOut::kWrite);
  check_gemm(nullptr, Kind::kNT, 0.4, 9, GemmOut::kWrite);
  check_gemm(nullptr, Kind::kTN, 0.4, 10, GemmOut::kWrite);
}

TEST(GemmOracle, NTBatchMatchesSerialPerSampleReferenceBitwise) {
  check_nt_batch(gemm_kernels(), 11);
}

TEST(GemmOracle, BaselineVariantMatchesReferenceBitwise) {
  const GemmKernels* kernels = gemm_kernels_for(GemmIsa::kBaseline);
  ASSERT_NE(kernels, nullptr);
  check_all_kinds(kernels);
}

TEST(GemmOracle, Avx2VariantMatchesReferenceBitwise) {
  const GemmKernels* kernels = gemm_kernels_for(GemmIsa::kAvx2);
  if (kernels == nullptr) {
    GTEST_SKIP() << "no AVX2 variant on this build or CPU";
  }
  check_all_kinds(kernels);
}

TEST(GemmOracle, SelectsTheWidestSupportedVariant) {
  const GemmKernels* avx2 = gemm_kernels_for(GemmIsa::kAvx2);
  const GemmKernels* want = avx2 != nullptr ? avx2 : gemm_kernels_for(GemmIsa::kBaseline);
  EXPECT_EQ(&gemm_kernels(), want);
  EXPECT_STRNE(gemm_kernels().isa, "");
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
  // Write mode stores +0 where every product is skipped, as a zero fill
  // would leave it, and +0 + (-1 * +0) is +0.
  const float w[2] = {-1.0f, 0.0f};
  const float zero[2] = {0.0f, 0.0f};
  c[0] = -0.0f;
  gemm_nn(1, 1, 2, a, b, c, GemmOut::kWrite);
  EXPECT_FALSE(std::signbit(c[0]));
  c[0] = -0.0f;
  gemm_tn(1, 1, 2, w, zero, c, GemmOut::kWrite);
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

// Bit-exact oracle for BatchNorm: its per-channel double chains run several
// channels side by side in vector lanes (channel_moments / channel_grads),
// and every statistic, output and gradient must equal the one-channel-at-a-
// time loops in reference_kernels.hpp bit for bit, in every ISA variant, for
// channel counts that leave every kind of block tail.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "adaflow/common/rng.hpp"
#include "adaflow/nn/batchnorm.hpp"
#include "adaflow/nn/gemm.hpp"
#include "nn/reference_kernels.hpp"

namespace adaflow::nn {
namespace {

using namespace reference;

// Rank 4 is [N, C, H*W]; rank 2 is [N, C] with inner 1.
struct BnShape {
  std::int64_t outer;
  std::int64_t channels;
  std::int64_t inner;
};

std::vector<BnShape> bn_shapes() {
  std::vector<BnShape> shapes;
  for (const std::int64_t channels : {1, 3, 4, 5, 8, 33}) {
    shapes.push_back({7, channels, 10});  // rank 4, 2 x 5 images
    shapes.push_back({5, channels, 1});   // rank 2
  }
  shapes.push_back({32, 8, 900});  // bn0 of the scale-8 CNV at batch 32
  return shapes;
}

bool doubles_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

void check_kernels(const GemmKernels& kernels) {
  Rng rng(11);
  for (const BnShape& s : bn_shapes()) {
    const std::int64_t size = s.outer * s.channels * s.inner;
    const std::vector<float> x = random_values(size, rng, 0.1);
    const std::vector<float> dy = random_values(size, rng, 0.1);
    const auto channels = static_cast<std::size_t>(s.channels);
    std::vector<double> want_a(channels), want_b(channels);
    std::vector<double> got_a(channels, -1.0), got_b(channels, -1.0);
    const std::string where = std::string(kernels.isa) + " outer=" + std::to_string(s.outer) +
                              " channels=" + std::to_string(s.channels) +
                              " inner=" + std::to_string(s.inner);

    ref_channel_moments(s.outer, s.channels, s.inner, x.data(), want_a.data(), want_b.data());
    kernels.moments(s.outer, s.channels, s.inner, x.data(), got_a.data(), got_b.data());
    EXPECT_TRUE(doubles_equal(want_a, got_a)) << "sum, " << where;
    EXPECT_TRUE(doubles_equal(want_b, got_b)) << "sq_sum, " << where;

    ref_channel_grads(s.outer, s.channels, s.inner, dy.data(), x.data(), want_a.data(),
                      want_b.data());
    kernels.grads(s.outer, s.channels, s.inner, dy.data(), x.data(), got_a.data(), got_b.data());
    EXPECT_TRUE(doubles_equal(want_a, got_a)) << "dgamma, " << where;
    EXPECT_TRUE(doubles_equal(want_b, got_b)) << "dbeta, " << where;
  }
}

TEST(BatchNormOracle, BaselineChannelChainsMatchReferenceBitwise) {
  const GemmKernels* kernels = gemm_kernels_for(GemmIsa::kBaseline);
  ASSERT_NE(kernels, nullptr);
  check_kernels(*kernels);
}

TEST(BatchNormOracle, Avx2ChannelChainsMatchReferenceBitwise) {
  const GemmKernels* kernels = gemm_kernels_for(GemmIsa::kAvx2);
  if (kernels == nullptr) {
    GTEST_SKIP() << "no AVX2 variant on this build or CPU";
  }
  check_kernels(*kernels);
}

std::vector<float> values_of(const Tensor& t) { return {t.data(), t.data() + t.size()}; }

Tensor tensor_of(const Shape& shape, const std::vector<float>& values) {
  Tensor t(shape);
  std::memcpy(t.data(), values.data(), values.size() * sizeof(float));
  return t;
}

TEST(BatchNormOracle, LayerStepMatchesSerialReferenceBitwise) {
  Rng rng(12);
  for (const BnShape& s : bn_shapes()) {
    // Rank 2 when inner is 1, else [N, C, 2, inner / 2].
    const Shape shape = s.inner == 1 ? Shape{s.outer, s.channels}
                                     : Shape{s.outer, s.channels, 2, s.inner / 2};
    const std::int64_t size = s.outer * s.channels * s.inner;
    const std::vector<float> x = random_values(size, rng, 0.1);
    const std::vector<float> dy = random_values(size, rng, 0.1);
    BatchNorm bn("bn", s.channels, 0.1f, 1e-5f);
    bn.set_affine(tensor_of(Shape{s.channels}, random_values(s.channels, rng, 0.0)),
                  tensor_of(Shape{s.channels}, random_values(s.channels, rng, 0.0)));
    const std::vector<float> gamma = values_of(bn.gamma());
    const std::vector<float> beta = values_of(bn.beta());

    const BatchNormStep want =
        ref_batchnorm_step(s.outer, s.channels, s.inner, x.data(), dy.data(), gamma, beta,
                           bn.running_mean(), bn.running_var(), 0.1f, 1e-5f);
    // Two steps on one layer: the second reuses the first's cache storage.
    for (int step = 0; step < 2; ++step) {
      bn.set_statistics(std::vector<float>(static_cast<std::size_t>(s.channels), 0.0f),
                        std::vector<float>(static_cast<std::size_t>(s.channels), 1.0f));
      for (Param* p : bn.params()) {
        p->zero_grad();
      }
      const Tensor out = bn.forward(tensor_of(shape, x), /*training=*/true);
      const Tensor grad_in = bn.backward(tensor_of(shape, dy));
      const std::string where = "channels=" + std::to_string(s.channels) +
                                " rank=" + std::to_string(shape.size()) +
                                " step=" + std::to_string(step);
      EXPECT_TRUE(bitwise_equal(want.output, values_of(out))) << "output, " << where;
      EXPECT_TRUE(bitwise_equal(want.grad_input, values_of(grad_in))) << "grad_input, " << where;
      EXPECT_TRUE(bitwise_equal(want.grad_gamma, values_of(bn.params()[0]->grad)))
          << "grad_gamma, " << where;
      EXPECT_TRUE(bitwise_equal(want.grad_beta, values_of(bn.params()[1]->grad)))
          << "grad_beta, " << where;
      EXPECT_TRUE(bitwise_equal(want.running_mean, bn.running_mean())) << "mean, " << where;
      EXPECT_TRUE(bitwise_equal(want.running_var, bn.running_var())) << "var, " << where;
    }
  }
}

}  // namespace
}  // namespace adaflow::nn

#include "adaflow/nn/batchnorm.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "nn/grad_shape.hpp"

namespace adaflow::nn {
namespace {

TEST(BatchNorm, TrainingNormalizesBatchStatistics) {
  BatchNorm bn("bn", 2);
  Rng rng(1);
  Tensor in = Tensor::uniform(Shape{8, 2, 4, 4}, -3, 5, rng);
  Tensor out = bn.forward(in, true);
  // Per-channel mean ~0, var ~1 after normalization (gamma=1, beta=0).
  for (std::int64_t c = 0; c < 2; ++c) {
    double sum = 0.0, sq = 0.0;
    std::int64_t n = 0;
    for (std::int64_t b = 0; b < 8; ++b) {
      for (std::int64_t h = 0; h < 4; ++h) {
        for (std::int64_t w = 0; w < 4; ++w) {
          const double v = out.at4(b, c, h, w);
          sum += v;
          sq += v * v;
          ++n;
        }
      }
    }
    EXPECT_NEAR(sum / n, 0.0, 1e-4);
    EXPECT_NEAR(sq / n, 1.0, 1e-2);
  }
}

TEST(BatchNorm, InferenceUsesRunningStats) {
  BatchNorm bn("bn", 1);
  bn.set_statistics({2.0f}, {4.0f});
  Tensor in = Tensor::full(Shape{1, 1, 1, 1}, 4.0f);
  Tensor out = bn.forward(in, false);
  // (4 - 2) / sqrt(4 + eps) ~= 1.0
  EXPECT_NEAR(out[0], 1.0f, 1e-3);
}

TEST(BatchNorm, InferenceAffineMatchesDirectComputation) {
  BatchNorm bn("bn", 1);
  bn.set_statistics({1.5f}, {2.0f});
  Tensor gamma = Tensor::full(Shape{1}, 3.0f);
  Tensor beta = Tensor::full(Shape{1}, -0.5f);
  bn.set_affine(std::move(gamma), std::move(beta));
  const AffineChannel affine = bn.inference_affine();
  Tensor in = Tensor::full(Shape{1, 1, 1, 1}, 2.5f);
  Tensor out = bn.forward(in, false);
  EXPECT_NEAR(out[0], affine.scale[0] * 2.5f + affine.shift[0], 1e-6);
}

TEST(BatchNorm, SupportsRank2Input) {
  BatchNorm bn("bn", 3);
  Rng rng(2);
  Tensor in = Tensor::uniform(Shape{16, 3}, -1, 1, rng);
  Tensor out = bn.forward(in, true);
  EXPECT_EQ(out.shape(), in.shape());
}

TEST(BatchNorm, RejectsChannelMismatch) {
  BatchNorm bn("bn", 3);
  EXPECT_THROW(bn.forward(Tensor(Shape{1, 4, 2, 2}), true), ShapeError);
}

TEST(BatchNorm, GradientsMatchNumeric) {
  Rng rng(7);
  BatchNorm bn("bn", 2);
  Tensor in = Tensor::uniform(Shape{4, 2, 3, 3}, -1, 1, rng);
  Tensor target = Tensor::uniform(in.shape(), -1, 1, rng);

  // Loss = 0.5 * sum((bn(x) - t)^2). BN couples elements through the batch
  // statistics, so the numeric check must recompute the whole forward.
  auto scalar_loss = [&](BatchNorm& layer, const Tensor& x) {
    Tensor out = layer.forward(x, true);
    double s = 0.0;
    for (std::int64_t i = 0; i < out.size(); ++i) {
      const double d = out[i] - target[i];
      s += 0.5 * d * d;
    }
    return s;
  };

  Tensor out = bn.forward(in, true);
  Tensor grad_out(out.shape());
  for (std::int64_t i = 0; i < out.size(); ++i) {
    grad_out[i] = out[i] - target[i];
  }
  for (Param* p : bn.params()) {
    p->zero_grad();
  }
  Tensor grad_in = bn.backward(grad_out);

  const float eps = 1e-2f;
  for (std::int64_t idx : {0L, 11L, 31L}) {
    Tensor up = in;
    up[idx] += eps;
    Tensor down = in;
    down[idx] -= eps;
    const double numeric = (scalar_loss(bn, up) - scalar_loss(bn, down)) / (2.0 * eps);
    EXPECT_NEAR(grad_in[idx], numeric, 5e-2 + 5e-2 * std::fabs(numeric));
  }
}

TEST(BatchNorm, RunningStatsConvergeTowardBatchStats) {
  BatchNorm bn("bn", 1);
  Rng rng(4);
  // Feed many batches with mean ~3, var ~1.
  for (int i = 0; i < 60; ++i) {
    Tensor in(Shape{16, 1, 2, 2});
    for (std::int64_t j = 0; j < in.size(); ++j) {
      in[j] = static_cast<float>(rng.normal(3.0, 1.0));
    }
    bn.forward(in, true);
  }
  EXPECT_NEAR(bn.running_mean()[0], 3.0f, 0.25f);
  EXPECT_NEAR(bn.running_var()[0], 1.0f, 0.25f);
}

TEST(BatchNorm, SetStatisticsValidatesSize) {
  BatchNorm bn("bn", 2);
  EXPECT_THROW(bn.set_statistics({1.0f}, {1.0f}), ConfigError);
  EXPECT_THROW(bn.set_affine(Tensor(Shape{1}), Tensor(Shape{2})), ConfigError);
}

TEST(BatchNorm, BackwardRejectsGradientOfAnotherShape) {
  BatchNorm bn("bn", 4);
  bn.forward(Tensor(Shape{2, 4}), true);
  expect_grad_shape_error(bn, Shape{2, 4}, Shape{8, 4});
  BatchNorm conv_bn("conv_bn", 3);
  conv_bn.forward(Tensor(Shape{2, 3, 2, 2}), true);
  expect_grad_shape_error(conv_bn, Shape{2, 3, 2, 2}, Shape{2, 3, 3, 3});
}

}  // namespace
}  // namespace adaflow::nn

#include "adaflow/nn/conv2d.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "adaflow/nn/loss.hpp"

#include "nn/grad_shape.hpp"

namespace adaflow::nn {
namespace {

Conv2d make_conv(Conv2dConfig cfg, int weight_bits, std::uint64_t seed) {
  Rng rng(seed);
  QuantSpec q;
  q.weight_bits = weight_bits;
  return Conv2d("conv", cfg, q, rng);
}

TEST(Conv2d, OutputShapeValidPadding) {
  Conv2d conv = make_conv({.in_channels = 3, .out_channels = 4, .kernel = 3}, 0, 1);
  EXPECT_EQ(conv.output_shape(Shape{2, 3, 8, 8}), (Shape{2, 4, 6, 6}));
}

TEST(Conv2d, OutputShapeSamePadding) {
  Conv2d conv = make_conv({.in_channels = 1, .out_channels = 2, .kernel = 3, .stride = 1, .pad = 1}, 0, 1);
  EXPECT_EQ(conv.output_shape(Shape{1, 1, 5, 5}), (Shape{1, 2, 5, 5}));
}

TEST(Conv2d, RejectsChannelMismatch) {
  Conv2d conv = make_conv({.in_channels = 3, .out_channels = 4, .kernel = 3}, 0, 1);
  EXPECT_THROW(conv.output_shape(Shape{1, 5, 8, 8}), ShapeError);
}

TEST(Conv2d, KnownValueIdentityKernel) {
  // 1x1 kernel, one channel, weight = 2 -> output is 2 * input.
  Conv2dConfig cfg{.in_channels = 1, .out_channels = 1, .kernel = 1};
  Tensor w(Shape{1, 1});
  w[0] = 2.0f;
  Conv2d conv("conv", cfg, QuantSpec{}, std::move(w));
  Tensor in(Shape{1, 1, 2, 2});
  for (std::int64_t i = 0; i < 4; ++i) {
    in[i] = static_cast<float>(i + 1);
  }
  Tensor out = conv.forward(in, false);
  for (std::int64_t i = 0; i < 4; ++i) {
    EXPECT_FLOAT_EQ(out[i], 2.0f * static_cast<float>(i + 1));
  }
}

TEST(Conv2d, KnownValueSumKernel) {
  // 3x3 all-ones kernel over an all-ones 3x3 input (valid) = 9.
  Conv2dConfig cfg{.in_channels = 1, .out_channels = 1, .kernel = 3};
  Tensor w = Tensor::full(Shape{1, 9}, 1.0f);
  Conv2d conv("conv", cfg, QuantSpec{}, std::move(w));
  Tensor in = Tensor::full(Shape{1, 1, 3, 3}, 1.0f);
  Tensor out = conv.forward(in, false);
  EXPECT_EQ(out.shape(), (Shape{1, 1, 1, 1}));
  EXPECT_FLOAT_EQ(out[0], 9.0f);
}

TEST(Conv2d, Im2ColRoundTripShapes) {
  // im2col of a 1-channel 4x4 with k=2 s=2 -> 4 rows, 4 cols.
  std::vector<float> in(16);
  for (std::size_t i = 0; i < 16; ++i) {
    in[i] = static_cast<float>(i);
  }
  std::vector<float> col(4 * 4);
  im2col(in.data(), 1, 4, 4, 2, 2, 0, col.data());
  // First output column = window at (0,0): values 0,1,4,5 in kh,kw order.
  EXPECT_EQ(col[0 * 4 + 0], 0.0f);
  EXPECT_EQ(col[1 * 4 + 0], 1.0f);
  EXPECT_EQ(col[2 * 4 + 0], 4.0f);
  EXPECT_EQ(col[3 * 4 + 0], 5.0f);
}

TEST(Conv2d, Col2ImIsAdjointOfIm2Col) {
  // <im2col(x), y> == <x, col2im(y)> for random x, y (adjoint property).
  Rng rng(3);
  const std::int64_t c = 2, h = 5, w = 5, k = 3, s = 1, p = 1;
  const std::int64_t oh = (h + 2 * p - k) / s + 1;
  const std::int64_t rows = c * k * k, cols = oh * oh;
  Tensor x = Tensor::uniform(Shape{c * h * w}, -1, 1, rng);
  Tensor y = Tensor::uniform(Shape{rows * cols}, -1, 1, rng);
  std::vector<float> col(static_cast<std::size_t>(rows * cols));
  im2col(x.data(), c, h, w, k, s, p, col.data());
  std::vector<float> back(static_cast<std::size_t>(c * h * w), 0.0f);
  col2im(y.data(), c, h, w, k, s, p, back.data());
  double lhs = 0.0, rhs = 0.0;
  for (std::int64_t i = 0; i < rows * cols; ++i) {
    lhs += static_cast<double>(col[static_cast<std::size_t>(i)]) * y[i];
  }
  for (std::int64_t i = 0; i < c * h * w; ++i) {
    rhs += static_cast<double>(x[i]) * back[static_cast<std::size_t>(i)];
  }
  EXPECT_NEAR(lhs, rhs, 1e-3);
}

/// Numeric gradient check of the (unquantized) conv layer.
TEST(Conv2d, GradientsMatchNumeric) {
  Rng rng(11);
  Conv2dConfig cfg{.in_channels = 2, .out_channels = 3, .kernel = 3, .stride = 1, .pad = 1};
  Conv2d conv = make_conv(cfg, 0, 11);
  Tensor in = Tensor::uniform(Shape{2, 2, 4, 4}, -1, 1, rng);

  auto scalar_loss = [&](Conv2d& layer, const Tensor& x) {
    Tensor out = layer.forward(x, true);
    double s = 0.0;
    for (std::int64_t i = 0; i < out.size(); ++i) {
      s += 0.5 * static_cast<double>(out[i]) * out[i];
    }
    return s;
  };

  // Analytic gradients.
  Tensor out = conv.forward(in, true);
  Tensor grad_out(out.shape());
  for (std::int64_t i = 0; i < out.size(); ++i) {
    grad_out[i] = out[i];  // d(0.5*sum(out^2))/d(out) = out
  }
  conv.params()[0]->zero_grad();
  Tensor grad_in = conv.backward(grad_out);

  const float eps = 1e-2f;
  // Spot-check a handful of weight coordinates.
  for (std::int64_t idx : {0L, 5L, 17L, 30L}) {
    const float saved = conv.mutable_weight()[idx];
    conv.mutable_weight()[idx] = saved + eps;
    const double up = scalar_loss(conv, in);
    conv.mutable_weight()[idx] = saved - eps;
    const double down = scalar_loss(conv, in);
    conv.mutable_weight()[idx] = saved;
    const double numeric = (up - down) / (2.0 * eps);
    EXPECT_NEAR(conv.params()[0]->grad[idx], numeric, 2e-1 + 2e-2 * std::fabs(numeric));
  }
  // Spot-check input gradients.
  for (std::int64_t idx : {0L, 13L, 40L}) {
    Tensor in_up = in;
    in_up[idx] += eps;
    Tensor in_down = in;
    in_down[idx] -= eps;
    const double numeric = (scalar_loss(conv, in_up) - scalar_loss(conv, in_down)) / (2.0 * eps);
    EXPECT_NEAR(grad_in[idx], numeric, 2e-1 + 2e-2 * std::fabs(numeric));
  }
}

TEST(Conv2d, QuantizedForwardUsesTernaryWeights) {
  Conv2d conv = make_conv({.in_channels = 1, .out_channels = 2, .kernel = 3}, 2, 4);
  QuantizedWeights q = conv.export_quantized();
  for (std::int64_t i = 0; i < q.levels.size(); ++i) {
    EXPECT_TRUE(q.levels[i] == -1.0f || q.levels[i] == 0.0f || q.levels[i] == 1.0f);
  }
  Tensor w_eff = conv.effective_weight();
  for (std::int64_t i = 0; i < w_eff.size(); ++i) {
    EXPECT_FLOAT_EQ(w_eff[i], q.levels[i] * q.scale);
  }
}

TEST(Conv2d, ExportQuantizedRequiresQuantSpec) {
  Conv2d conv = make_conv({.in_channels = 1, .out_channels = 1, .kernel = 3}, 0, 4);
  EXPECT_THROW(conv.export_quantized(), ConfigError);
}

TEST(Conv2d, BackwardWithoutForwardThrows) {
  Conv2d conv = make_conv({.in_channels = 1, .out_channels = 1, .kernel = 3}, 0, 4);
  Tensor g(Shape{1, 1, 1, 1});
  EXPECT_THROW(conv.backward(g), ConfigError);
}

TEST(Conv2d, ExternalWeightShapeChecked) {
  Conv2dConfig cfg{.in_channels = 2, .out_channels = 2, .kernel = 3};
  EXPECT_THROW(Conv2d("c", cfg, QuantSpec{}, Tensor(Shape{2, 17})), ShapeError);
}

TEST(Conv2d, BackwardRejectsGradientOfAnotherShape) {
  Conv2d conv = make_conv({.in_channels = 2, .out_channels = 3, .kernel = 3}, 2, 4);
  conv.forward(Tensor(Shape{2, 2, 5, 5}), true);
  expect_grad_shape_error(conv, Shape{2, 3, 3, 3}, Shape{8, 3, 3, 3});
  expect_grad_shape_error(conv, Shape{2, 3, 3, 3}, Shape{2, 3, 5, 5});
  EXPECT_THROW(conv.backward_params(Tensor(Shape{8, 3, 3, 3})), ShapeError);
}

}  // namespace
}  // namespace adaflow::nn

#include "adaflow/nn/linear.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "nn/grad_shape.hpp"

namespace adaflow::nn {
namespace {

TEST(Linear, KnownMatrixVectorProduct) {
  Tensor w(Shape{2, 3});
  // W = [[1,2,3],[4,5,6]]
  for (std::int64_t i = 0; i < 6; ++i) {
    w[i] = static_cast<float>(i + 1);
  }
  Linear fc("fc", 3, 2, QuantSpec{}, std::move(w));
  Tensor in(Shape{1, 3});
  in[0] = 1.0f;
  in[1] = 0.0f;
  in[2] = -1.0f;
  Tensor out = fc.forward(in, false);
  EXPECT_FLOAT_EQ(out[0], 1.0f - 3.0f);
  EXPECT_FLOAT_EQ(out[1], 4.0f - 6.0f);
}

TEST(Linear, FlattensRank4Input) {
  Rng rng(1);
  Linear fc("fc", 2 * 2 * 2, 3, QuantSpec{}, rng);
  Tensor in = Tensor::uniform(Shape{4, 2, 2, 2}, -1, 1, rng);
  Tensor out = fc.forward(in, false);
  EXPECT_EQ(out.shape(), (Shape{4, 3}));
}

TEST(Linear, RejectsFeatureMismatch) {
  Rng rng(1);
  Linear fc("fc", 8, 3, QuantSpec{}, rng);
  EXPECT_THROW(fc.output_shape(Shape{1, 9}), ShapeError);
}

TEST(Linear, GradientsMatchNumeric) {
  Rng rng(13);
  Linear fc("fc", 5, 4, QuantSpec{}, rng);
  Tensor in = Tensor::uniform(Shape{3, 5}, -1, 1, rng);

  auto scalar_loss = [&](Linear& layer, const Tensor& x) {
    Tensor out = layer.forward(x, true);
    double s = 0.0;
    for (std::int64_t i = 0; i < out.size(); ++i) {
      s += 0.5 * static_cast<double>(out[i]) * out[i];
    }
    return s;
  };

  Tensor out = fc.forward(in, true);
  Tensor grad_out(out.shape());
  for (std::int64_t i = 0; i < out.size(); ++i) {
    grad_out[i] = out[i];
  }
  fc.params()[0]->zero_grad();
  Tensor grad_in = fc.backward(grad_out);

  const float eps = 1e-2f;
  for (std::int64_t idx : {0L, 7L, 19L}) {
    const float saved = fc.mutable_weight()[idx];
    fc.mutable_weight()[idx] = saved + eps;
    const double up = scalar_loss(fc, in);
    fc.mutable_weight()[idx] = saved - eps;
    const double down = scalar_loss(fc, in);
    fc.mutable_weight()[idx] = saved;
    const double numeric = (up - down) / (2.0 * eps);
    EXPECT_NEAR(fc.params()[0]->grad[idx], numeric, 1e-1 + 2e-2 * std::fabs(numeric));
  }
  for (std::int64_t idx : {0L, 8L, 14L}) {
    Tensor up = in;
    up[idx] += eps;
    Tensor down = in;
    down[idx] -= eps;
    const double numeric = (scalar_loss(fc, up) - scalar_loss(fc, down)) / (2.0 * eps);
    EXPECT_NEAR(grad_in[idx], numeric, 1e-1 + 2e-2 * std::fabs(numeric));
  }
}

TEST(Linear, GradInShapeMatchesOriginalRank4) {
  Rng rng(5);
  Linear fc("fc", 8, 2, QuantSpec{}, rng);
  Tensor in = Tensor::uniform(Shape{2, 2, 2, 2}, -1, 1, rng);
  Tensor out = fc.forward(in, true);
  Tensor grad_in = fc.backward(Tensor::full(out.shape(), 1.0f));
  EXPECT_EQ(grad_in.shape(), in.shape());
}

TEST(Linear, QuantizedExportTernary) {
  Rng rng(9);
  QuantSpec q;
  q.weight_bits = 2;
  Linear fc("fc", 6, 3, q, rng);
  QuantizedWeights qw = fc.export_quantized();
  for (std::int64_t i = 0; i < qw.levels.size(); ++i) {
    EXPECT_TRUE(qw.levels[i] == -1.0f || qw.levels[i] == 0.0f || qw.levels[i] == 1.0f);
  }
}

TEST(Linear, WeightShapeValidated) {
  EXPECT_THROW(Linear("fc", 3, 2, QuantSpec{}, Tensor(Shape{2, 4})), ShapeError);
}

TEST(Linear, BackwardRejectsGradientOfAnotherShape) {
  Rng rng(6);
  Linear fc("fc", 12, 5, QuantSpec{}, rng);
  fc.forward(Tensor(Shape{2, 3, 2, 2}), true);
  expect_grad_shape_error(fc, Shape{2, 5}, Shape{8, 5});
  expect_grad_shape_error(fc, Shape{2, 5}, Shape{2, 6});
  EXPECT_THROW(fc.backward_params(Tensor(Shape{8, 5})), ShapeError);
}

}  // namespace
}  // namespace adaflow::nn

#include "adaflow/nn/quant_act.hpp"

#include <gtest/gtest.h>

#include "nn/grad_shape.hpp"

namespace adaflow::nn {
namespace {

QuantSpec two_bit() {
  QuantSpec q;
  q.act_bits = 2;
  q.act_scale = 0.5f;
  return q;
}

TEST(QuantAct, QuantizesToLevelGrid) {
  QuantAct act("act", two_bit());
  Tensor in(Shape{1, 1, 1, 5});
  in[0] = -1.0f;
  in[1] = 0.3f;
  in[2] = 0.6f;
  in[3] = 1.2f;
  in[4] = 9.0f;
  Tensor out = act.forward(in, false);
  EXPECT_FLOAT_EQ(out[0], 0.0f);
  EXPECT_FLOAT_EQ(out[1], 0.5f);
  EXPECT_FLOAT_EQ(out[2], 0.5f);
  EXPECT_FLOAT_EQ(out[3], 1.0f);
  EXPECT_FLOAT_EQ(out[4], 1.5f);  // clamp at level 3
}

TEST(QuantAct, ZeroBitsIsRelu) {
  QuantAct act("act", QuantSpec{});
  Tensor in(Shape{1, 3});
  in[0] = -2.0f;
  in[1] = 0.0f;
  in[2] = 1.7f;
  Tensor out = act.forward(in, false);
  EXPECT_FLOAT_EQ(out[0], 0.0f);
  EXPECT_FLOAT_EQ(out[1], 0.0f);
  EXPECT_FLOAT_EQ(out[2], 1.7f);
}

TEST(QuantAct, SteGradientMasksOutOfRange) {
  QuantAct act("act", two_bit());
  Tensor in(Shape{1, 3});
  in[0] = -2.0f;  // below range -> masked
  in[1] = 0.7f;   // inside
  in[2] = 5.0f;   // above -> masked
  act.forward(in, true);
  Tensor grad = act.backward(Tensor::full(Shape{1, 3}, 1.0f));
  EXPECT_FLOAT_EQ(grad[0], 0.0f);
  EXPECT_FLOAT_EQ(grad[1], 1.0f);
  EXPECT_FLOAT_EQ(grad[2], 0.0f);
}

TEST(QuantAct, ReluGradient) {
  QuantAct act("act", QuantSpec{});
  Tensor in(Shape{1, 2});
  in[0] = -1.0f;
  in[1] = 2.0f;
  act.forward(in, true);
  Tensor grad = act.backward(Tensor::full(Shape{1, 2}, 3.0f));
  EXPECT_FLOAT_EQ(grad[0], 0.0f);
  EXPECT_FLOAT_EQ(grad[1], 3.0f);
}

TEST(QuantAct, RejectsBadConfig) {
  QuantSpec q;
  q.act_bits = 9;
  EXPECT_THROW(QuantAct("a", q), ConfigError);
  q.act_bits = 2;
  q.act_scale = 0.0f;
  EXPECT_THROW(QuantAct("a", q), ConfigError);
}

TEST(QuantAct, OutputNonNegative) {
  QuantAct act("act", two_bit());
  Rng rng(3);
  Tensor in = Tensor::uniform(Shape{64}, -5, 5, rng);
  Tensor out = act.forward(in, false);
  for (std::int64_t i = 0; i < out.size(); ++i) {
    EXPECT_GE(out[i], 0.0f);
    EXPECT_LE(out[i], 1.5f);
  }
}

TEST(QuantAct, BackwardRejectsGradientOfAnotherShape) {
  QuantAct act("act", two_bit());
  act.forward(Tensor(Shape{2, 4}), true);
  expect_grad_shape_error(act, Shape{2, 4}, Shape{8, 4});
  expect_grad_shape_error(act, Shape{2, 4}, Shape{2, 4, 1, 1});
}

}  // namespace
}  // namespace adaflow::nn

#include "adaflow/nn/maxpool2d.hpp"

#include <gtest/gtest.h>

#include "nn/grad_shape.hpp"

namespace adaflow::nn {
namespace {

TEST(MaxPool2d, KnownValues) {
  MaxPool2d pool("pool", 2);
  Tensor in(Shape{1, 1, 4, 4});
  for (std::int64_t i = 0; i < 16; ++i) {
    in[i] = static_cast<float>(i);
  }
  Tensor out = pool.forward(in, false);
  EXPECT_EQ(out.shape(), (Shape{1, 1, 2, 2}));
  EXPECT_FLOAT_EQ(out[0], 5.0f);
  EXPECT_FLOAT_EQ(out[1], 7.0f);
  EXPECT_FLOAT_EQ(out[2], 13.0f);
  EXPECT_FLOAT_EQ(out[3], 15.0f);
}

TEST(MaxPool2d, RejectsNonDivisibleInput) {
  MaxPool2d pool("pool", 2);
  EXPECT_THROW(pool.output_shape(Shape{1, 1, 5, 4}), ShapeError);
}

TEST(MaxPool2d, BackwardRoutesToArgmaxOnly) {
  MaxPool2d pool("pool", 2);
  Tensor in(Shape{1, 1, 2, 2});
  in[0] = 1.0f;
  in[1] = 5.0f;  // the max
  in[2] = 2.0f;
  in[3] = 3.0f;
  pool.forward(in, true);
  Tensor grad_out = Tensor::full(Shape{1, 1, 1, 1}, 7.0f);
  Tensor grad_in = pool.backward(grad_out);
  EXPECT_FLOAT_EQ(grad_in[0], 0.0f);
  EXPECT_FLOAT_EQ(grad_in[1], 7.0f);
  EXPECT_FLOAT_EQ(grad_in[2], 0.0f);
  EXPECT_FLOAT_EQ(grad_in[3], 0.0f);
}

TEST(MaxPool2d, PerChannelIndependence) {
  MaxPool2d pool("pool", 2);
  Tensor in(Shape{1, 2, 2, 2});
  in.at4(0, 0, 0, 0) = 9.0f;
  in.at4(0, 1, 1, 1) = 4.0f;
  Tensor out = pool.forward(in, false);
  EXPECT_FLOAT_EQ(out.at4(0, 0, 0, 0), 9.0f);
  EXPECT_FLOAT_EQ(out.at4(0, 1, 0, 0), 4.0f);
}

TEST(MaxPool2d, BackwardWithoutForwardThrows) {
  MaxPool2d pool("pool", 2);
  EXPECT_THROW(pool.backward(Tensor(Shape{1, 1, 1, 1})), ConfigError);
}

TEST(MaxPool2d, NegativeValuesHandled) {
  MaxPool2d pool("pool", 2);
  Tensor in = Tensor::full(Shape{1, 1, 2, 2}, -3.0f);
  in[2] = -1.0f;
  Tensor out = pool.forward(in, false);
  EXPECT_FLOAT_EQ(out[0], -1.0f);
}

TEST(MaxPool2d, BackwardRejectsGradientOfAnotherShape) {
  MaxPool2d pool("pool", 2);
  pool.forward(Tensor(Shape{2, 3, 4, 4}), true);
  expect_grad_shape_error(pool, Shape{2, 3, 2, 2}, Shape{8, 3, 2, 2});
  expect_grad_shape_error(pool, Shape{2, 3, 2, 2}, Shape{2, 3, 4, 4});
}

}  // namespace
}  // namespace adaflow::nn

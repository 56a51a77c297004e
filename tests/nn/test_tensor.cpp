#include "adaflow/nn/tensor.hpp"

#include <gtest/gtest.h>

#include <utility>

namespace adaflow::nn {
namespace {

TEST(Tensor, ZeroInitialized) {
  Tensor t(Shape{2, 3});
  EXPECT_EQ(t.size(), 6);
  for (std::int64_t i = 0; i < t.size(); ++i) {
    EXPECT_EQ(t[i], 0.0f);
  }
}

TEST(Tensor, FullFillsValue) {
  Tensor t = Tensor::full(Shape{4}, 2.5f);
  for (std::int64_t i = 0; i < 4; ++i) {
    EXPECT_EQ(t[i], 2.5f);
  }
}

TEST(Tensor, Index4RowMajor) {
  Tensor t(Shape{2, 3, 4, 5});
  EXPECT_EQ(t.index4(0, 0, 0, 0), 0);
  EXPECT_EQ(t.index4(0, 0, 0, 1), 1);
  EXPECT_EQ(t.index4(0, 0, 1, 0), 5);
  EXPECT_EQ(t.index4(0, 1, 0, 0), 20);
  EXPECT_EQ(t.index4(1, 0, 0, 0), 60);
}

TEST(Tensor, At4ReadsWhatWasWritten) {
  Tensor t(Shape{1, 2, 3, 3});
  t.at4(0, 1, 2, 1) = 7.0f;
  EXPECT_EQ(t.at4(0, 1, 2, 1), 7.0f);
  EXPECT_EQ(t[t.index4(0, 1, 2, 1)], 7.0f);
}

TEST(Tensor, ReshapePreservesData) {
  Tensor t(Shape{2, 6});
  t[7] = 3.0f;
  Tensor r = t.reshaped(Shape{3, 4});
  EXPECT_EQ(r.shape(), (Shape{3, 4}));
  EXPECT_EQ(r[7], 3.0f);
}

TEST(Tensor, ReshapeOfAnRvalueMovesTheStorage) {
  Tensor t(Shape{2, 6});
  t[7] = 3.0f;
  const float* storage = t.data();
  Tensor copy = t.reshaped(Shape{12});
  EXPECT_NE(copy.data(), storage);
  EXPECT_EQ(t.shape(), (Shape{2, 6}));  // an lvalue keeps its tensor
  Tensor moved = std::move(t).reshaped(Shape{4, 3});
  EXPECT_EQ(moved.data(), storage);
  EXPECT_EQ(moved.shape(), (Shape{4, 3}));
  EXPECT_EQ(moved[7], 3.0f);
}

TEST(Tensor, UninitializedHasTheShapeAndWritableStorage) {
  Tensor t = Tensor::uninitialized(Shape{3, 5});
  EXPECT_EQ(t.shape(), (Shape{3, 5}));
  ASSERT_EQ(t.size(), 15);
  t.fill(2.0f);
  EXPECT_EQ(t[14], 2.0f);
  EXPECT_TRUE(Tensor::uninitialized(Shape{0, 4}).empty());
}

TEST(Tensor, ReshapeRejectsCountMismatch) {
  Tensor t(Shape{2, 6});
  EXPECT_THROW(t.reshaped(Shape{5}), ShapeError);
}

TEST(Tensor, HeNormalStddevScalesWithFanIn) {
  Rng rng(3);
  Tensor t = Tensor::he_normal(Shape{10000}, 50, rng);
  double sq = 0.0;
  for (std::int64_t i = 0; i < t.size(); ++i) {
    sq += static_cast<double>(t[i]) * t[i];
  }
  const double var = sq / static_cast<double>(t.size());
  EXPECT_NEAR(var, 2.0 / 50.0, 0.004);
}

TEST(Tensor, UniformRange) {
  Rng rng(5);
  Tensor t = Tensor::uniform(Shape{1000}, -1.0f, 1.0f, rng);
  for (std::int64_t i = 0; i < t.size(); ++i) {
    EXPECT_GE(t[i], -1.0f);
    EXPECT_LT(t[i], 1.0f);
  }
}

TEST(Tensor, NegativeDimensionRejected) {
  EXPECT_THROW(Tensor(Shape{2, -1}), ShapeError);
}

TEST(Tensor, ShapeString) {
  Tensor t(Shape{1, 3, 32, 32});
  EXPECT_EQ(t.shape_string(), "[1, 3, 32, 32]");
}

}  // namespace
}  // namespace adaflow::nn

#include "adaflow/nn/model.hpp"

#include <gtest/gtest.h>

#include <memory>

namespace adaflow::nn {
namespace {

Model small_model(std::uint64_t seed) {
  Rng rng(seed);
  Model m("tiny", Shape{1, 6, 6});
  m.add(std::make_unique<Conv2d>("conv0", Conv2dConfig{.in_channels = 1, .out_channels = 2, .kernel = 3},
                                 QuantSpec{}, rng));
  m.add(std::make_unique<BatchNorm>("bn0", 2));
  m.add(std::make_unique<QuantAct>("act0", QuantSpec{}));
  m.add(std::make_unique<MaxPool2d>("pool0", 2));
  m.add(std::make_unique<Linear>("fc", 2 * 2 * 2, 3, QuantSpec{}, rng));
  return m;
}

TEST(Model, ShapesForBatch) {
  Model m = small_model(1);
  const std::vector<Shape> shapes = m.shapes_for_batch(4);
  ASSERT_EQ(shapes.size(), 6u);
  EXPECT_EQ(shapes[0], (Shape{4, 1, 6, 6}));
  EXPECT_EQ(shapes[1], (Shape{4, 2, 4, 4}));
  EXPECT_EQ(shapes[4], (Shape{4, 2, 2, 2}));
  EXPECT_EQ(shapes[5], (Shape{4, 3}));
}

TEST(Model, ForwardProducesLogits) {
  Model m = small_model(2);
  Rng rng(3);
  Tensor in = Tensor::uniform(Shape{2, 1, 6, 6}, -1, 1, rng);
  Tensor out = m.forward(in, false);
  EXPECT_EQ(out.shape(), (Shape{2, 3}));
}

TEST(Model, IndicesOfFindsKinds) {
  Model m = small_model(4);
  EXPECT_EQ(m.indices_of(LayerKind::kConv2d), (std::vector<std::size_t>{0}));
  EXPECT_EQ(m.indices_of(LayerKind::kLinear), (std::vector<std::size_t>{4}));
  EXPECT_EQ(m.indices_of(LayerKind::kMaxPool2d), (std::vector<std::size_t>{3}));
}

TEST(Model, LayerAsChecksKind) {
  Model m = small_model(5);
  EXPECT_NO_THROW(m.layer_as<Conv2d>(0));
  EXPECT_THROW(m.layer_as<Linear>(0), NotFoundError);
}

TEST(Model, ParamCountMatchesSum) {
  Model m = small_model(6);
  // conv: 2*9, bn: 2+2, fc: 8*3
  EXPECT_EQ(m.param_count(), 2 * 9 + 4 + 24);
}

TEST(Model, ZeroGradClearsAll) {
  Model m = small_model(8);
  Rng rng(9);
  Tensor in = Tensor::uniform(Shape{2, 1, 6, 6}, -1, 1, rng);
  Tensor out = m.forward(in, true);
  m.backward(Tensor::full(out.shape(), 1.0f));
  m.zero_grad();
  for (Param* p : m.params()) {
    for (std::int64_t i = 0; i < p->grad.size(); ++i) {
      EXPECT_EQ(p->grad[i], 0.0f);
    }
  }
}

TEST(Model, BackwardChangesParamGrads) {
  Model m = small_model(10);
  Rng rng(11);
  Tensor in = Tensor::uniform(Shape{2, 1, 6, 6}, -1, 1, rng);
  m.zero_grad();
  Tensor out = m.forward(in, true);
  m.backward(Tensor::full(out.shape(), 1.0f));
  double grad_mag = 0.0;
  for (Param* p : m.params()) {
    for (std::int64_t i = 0; i < p->grad.size(); ++i) {
      grad_mag += std::abs(p->grad[i]);
    }
  }
  EXPECT_GT(grad_mag, 0.0);
}

TEST(Model, InputShapeValidated) {
  EXPECT_THROW(Model("bad", Shape{3, 32}), ConfigError);
}

}  // namespace
}  // namespace adaflow::nn

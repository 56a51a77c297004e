#include "adaflow/nn/mlp.hpp"

#include <gtest/gtest.h>

#include "adaflow/datasets/synthetic.hpp"
#include "adaflow/graph/builders.hpp"
#include "adaflow/graph/lower.hpp"
#include "adaflow/nn/trainer.hpp"

namespace adaflow::nn {
namespace {

Model build(const MlpTopology& topology, std::uint64_t seed) {
  return graph::lower_model(graph::from_mlp(topology), seed);
}

TEST(Mlp, TfcTopology) {
  const MlpTopology t = tfc_w1a2(10);
  EXPECT_EQ(t.name, "TFCW1A2");
  EXPECT_EQ(t.hidden, (std::vector<std::int64_t>{64, 64, 64}));
  EXPECT_EQ(t.quant.weight_bits, 1);
  EXPECT_EQ(t.quant.act_bits, 2);
  EXPECT_EQ(t.input, (Shape{1, 28, 28}));
}

TEST(Mlp, ScaleDivFloorsAtSixteen) {
  const MlpTopology t = tfc_w1a2(10, 100);
  for (std::int64_t w : t.hidden) {
    EXPECT_EQ(w, 16);
  }
}

TEST(Mlp, BuildsRunnableModel) {
  Model m = build(tfc_w1a2(10), 5);
  Rng rng(2);
  Tensor in = Tensor::uniform(Shape{3, 1, 28, 28}, -1, 1, rng);
  Tensor out = m.forward(in, false);
  EXPECT_EQ(out.shape(), (Shape{3, 10}));
  // Linear -> BN -> QuantAct per hidden + bare classifier.
  EXPECT_EQ(m.indices_of(LayerKind::kLinear).size(), 4u);
  EXPECT_EQ(m.indices_of(LayerKind::kBatchNorm).size(), 3u);
  EXPECT_EQ(m.indices_of(LayerKind::kConv2d).size(), 0u);
}

TEST(Mlp, LearnsSynthMnist) {
  datasets::DatasetSpec spec = datasets::synth_mnist_spec(500, 200);
  const datasets::SyntheticDataset ds = datasets::generate(spec);
  Model m = build(tfc_w1a2(spec.classes), 5);
  TrainConfig tc;
  tc.epochs = 3;
  tc.lr = 0.02f;
  tc.augment = false;  // digits are centered; no crop/flip
  Trainer(tc).fit(m, ds.train);
  EXPECT_GT(Trainer::evaluate(m, ds.test), 0.5);  // chance 0.1
}

TEST(Mlp, EmptyHiddenRejected) {
  MlpTopology t = tfc_w1a2(10);
  t.hidden.clear();
  EXPECT_THROW(build(t, 1), ConfigError);
}

}  // namespace
}  // namespace adaflow::nn

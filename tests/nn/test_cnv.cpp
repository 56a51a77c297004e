// CNV topologies and the model graph::lower_model builds from them: a
// runnable forward pass, the Conv -> BN -> Act block order hls::compile_model
// folds, and per-seed deterministic weights.

#include "adaflow/nn/cnv.hpp"

#include <gtest/gtest.h>

#include "adaflow/graph/builders.hpp"
#include "adaflow/graph/lower.hpp"

namespace adaflow::nn {
namespace {

Model build(const CnvTopology& topology, std::uint64_t seed) {
  return graph::lower_model(graph::from_cnv(topology), seed);
}

TEST(Cnv, W2A2Topology) {
  const CnvTopology t = cnv_w2a2(10, 8);
  EXPECT_EQ(t.name, "CNVW2A2");
  EXPECT_EQ(t.conv_channels, (std::vector<std::int64_t>{8, 8, 16, 16, 32, 32}));
  EXPECT_EQ(t.quant.weight_bits, 2);
  EXPECT_EQ(t.quant.act_bits, 2);
}

TEST(Cnv, W1A2OnlyChangesWeightBits) {
  const CnvTopology t = cnv_w1a2(43, 8);
  EXPECT_EQ(t.name, "CNVW1A2");
  EXPECT_EQ(t.quant.weight_bits, 1);
  EXPECT_EQ(t.quant.act_bits, 2);
  EXPECT_EQ(t.classes, 43);
}

TEST(Cnv, FullScaleChannels) {
  const CnvTopology t = cnv_w2a2(10, 1);
  EXPECT_EQ(t.conv_channels, (std::vector<std::int64_t>{64, 64, 128, 128, 256, 256}));
}

TEST(Cnv, SpatialDimsFollowValidConvsAndPools) {
  const CnvTopology t = cnv_w2a2(10, 8);
  // 32 ->30 ->28 ->14 ->12 ->10 ->5 ->3 ->1, then the fc head at 1
  std::vector<std::int64_t> dims;
  for (const hls::CompiledStage& stage : graph::lower_geometry(graph::from_cnv(t)).stages) {
    dims.push_back(stage.desc.out_dim);
  }
  EXPECT_EQ(dims, (std::vector<std::int64_t>{30, 28, 14, 12, 10, 5, 3, 1, 1, 1}));
}

TEST(Cnv, BuildProducesRunnableModel) {
  const CnvTopology t = cnv_w2a2(10, 8);
  Model m = build(t, 3);
  Rng rng(4);
  Tensor in = Tensor::uniform(Shape{2, 3, 32, 32}, -1, 1, rng);
  Tensor out = m.forward(in, false);
  EXPECT_EQ(out.shape(), (Shape{2, 10}));
}

TEST(Cnv, LayerSequenceIsConvBnActWithPools) {
  const CnvTopology t = cnv_w2a2(10, 8);
  Model m = build(t, 3);
  EXPECT_EQ(m.indices_of(LayerKind::kConv2d).size(), 6u);
  EXPECT_EQ(m.indices_of(LayerKind::kMaxPool2d).size(), 2u);
  EXPECT_EQ(m.indices_of(LayerKind::kLinear).size(), 2u);
  // Each conv followed by BN then QuantAct.
  for (std::size_t i : m.indices_of(LayerKind::kConv2d)) {
    EXPECT_EQ(m.layer(i + 1).kind(), LayerKind::kBatchNorm);
    EXPECT_EQ(m.layer(i + 2).kind(), LayerKind::kQuantAct);
  }
}

TEST(Cnv, DeterministicInitializationPerSeed) {
  const CnvTopology t = cnv_w2a2(10, 8);
  Model a = build(t, 9);
  Model b = build(t, 9);
  Model c = build(t, 10);
  const auto& wa = a.layer_as<Conv2d>(0).weight();
  const auto& wb = b.layer_as<Conv2d>(0).weight();
  const auto& wc = c.layer_as<Conv2d>(0).weight();
  bool differs = false;
  for (std::int64_t i = 0; i < wa.size(); ++i) {
    EXPECT_EQ(wa[i], wb[i]);
    differs = differs || wa[i] != wc[i];
  }
  EXPECT_TRUE(differs) << "another seed must draw other weights";
}

TEST(Cnv, ScaleDivOneRejectedOnlyIfInvalid) {
  EXPECT_THROW(cnv_w2a2(10, 0), ConfigError);
}

TEST(Cnv, MinimumChannelFloor) {
  const CnvTopology t = cnv_w2a2(10, 64);
  for (std::int64_t c : t.conv_channels) {
    EXPECT_GE(c, 4);
  }
}

}  // namespace
}  // namespace adaflow::nn

#include "adaflow/hls/folding.hpp"

#include <gtest/gtest.h>

#include "adaflow/graph/builders.hpp"
#include "adaflow/graph/lower.hpp"
#include "adaflow/nn/cnv.hpp"
#include "testing/fixtures.hpp"

namespace adaflow::hls {
namespace {

using testing::trained_cnv_w2a2;

/// Two conv layers with non-power-of-two channel counts (48, 96): their
/// divisor chains contain 3, 6, 12, 24 — values a doubling-only folding
/// search can never reach.
nn::Model cnv48() {
  nn::CnvTopology t;
  t.name = "CNV48";
  t.input = {3, 32, 32};
  t.conv_channels = {48, 96};
  t.pool_after = {false, true};
  t.fc_features = {};
  t.classes = 10;
  t.quant = nn::QuantSpec{/*weight_bits=*/2, /*act_bits=*/2, /*act_scale=*/0.5f};
  return graph::lower_model(graph::from_cnv(t), 7);
}

TEST(Folding, EnumeratesConvAndFcLayers) {
  const std::vector<MvtuLayerDesc> layers = enumerate_mvtu_layers(trained_cnv_w2a2());
  ASSERT_EQ(layers.size(), 8u);  // 6 convs + 2 FCs
  EXPECT_TRUE(layers[0].is_conv);
  EXPECT_EQ(layers[0].ch_in, 3);
  EXPECT_EQ(layers[0].ch_out, 8);
  EXPECT_EQ(layers[0].in_dim, 32);
  EXPECT_EQ(layers[0].out_dim, 30);
  EXPECT_FALSE(layers[6].is_conv);
  EXPECT_EQ(layers[7].ch_out, 10);
}

TEST(Folding, ValidateAcceptsUnitFolding) {
  FoldingConfig f;
  f.layers.assign(8, LayerFolding{1, 1});
  EXPECT_NO_THROW(validate_folding(trained_cnv_w2a2(), f));
}

TEST(Folding, ValidateRejectsWrongCount) {
  FoldingConfig f;
  f.layers.assign(3, LayerFolding{1, 1});
  EXPECT_THROW(validate_folding(trained_cnv_w2a2(), f), FoldingError);
}

TEST(Folding, ValidateRejectsNonDividingPe) {
  FoldingConfig f;
  f.layers.assign(8, LayerFolding{1, 1});
  f.layers[0].pe = 3;  // ch_out = 8, not divisible
  EXPECT_THROW(validate_folding(trained_cnv_w2a2(), f), FoldingError);
}

TEST(Folding, ValidateRejectsNonDividingSimd) {
  FoldingConfig f;
  f.layers.assign(8, LayerFolding{1, 1});
  f.layers[1].simd = 3;  // ch_in = 8, not divisible
  EXPECT_THROW(validate_folding(trained_cnv_w2a2(), f), FoldingError);
}

TEST(Folding, ValidateRejectsZeroOrNegativeFolding) {
  FoldingConfig f;
  f.layers.assign(8, LayerFolding{1, 1});
  f.layers[2].pe = 0;
  EXPECT_THROW(validate_folding(trained_cnv_w2a2(), f), FoldingError);
  f.layers[2].pe = 1;
  f.layers[4].simd = -2;
  EXPECT_THROW(validate_folding(trained_cnv_w2a2(), f), FoldingError);
}

TEST(Folding, NextDivisorAboveStepsThroughEveryDivisor) {
  // 48's chain: every divisor is visited, including the non-powers-of-two.
  const std::vector<std::int64_t> expected{2, 3, 4, 6, 8, 12, 16, 24, 48};
  std::int64_t d = 1;
  for (std::int64_t next : expected) {
    d = next_divisor_above(48, d);
    EXPECT_EQ(d, next);
  }
  EXPECT_EQ(next_divisor_above(48, 48), 0);  // fully unrolled
  EXPECT_EQ(next_divisor_above(7, 1), 7);    // primes jump straight to value
  EXPECT_EQ(next_divisor_above(7, 7), 0);
  EXPECT_THROW(next_divisor_above(0, 1), ConfigError);
}

TEST(Folding, DivisorsOfEnumeratesAscending) {
  EXPECT_EQ(divisors_of(48), (std::vector<std::int64_t>{1, 2, 3, 4, 6, 8, 12, 16, 24, 48}));
  EXPECT_EQ(divisors_of(1), (std::vector<std::int64_t>{1}));
  EXPECT_EQ(divisors_of(13), (std::vector<std::int64_t>{1, 13}));
  EXPECT_EQ(divisors_of(36), (std::vector<std::int64_t>{1, 2, 3, 4, 6, 9, 12, 18, 36}));
  EXPECT_THROW(divisors_of(0), ConfigError);
}

TEST(Folding, MvtuLayerCyclesFormula) {
  MvtuLayerDesc d;
  d.ch_in = 8;
  d.ch_out = 16;
  d.kernel = 3;
  d.out_dim = 10;
  // out_pixels(100) * neuron folds(16/4) * synapse folds(72/2)
  EXPECT_EQ(mvtu_layer_cycles(d, LayerFolding{4, 2}), 100 * 4 * 36);
  EXPECT_EQ(mvtu_layer_cycles(d, LayerFolding{1, 1}), 100 * 16 * 72);
}

TEST(Folding, MvtuLayerCyclesCeilsPartialFolds) {
  MvtuLayerDesc d;
  d.ch_in = 6;
  d.ch_out = 10;
  d.kernel = 1;
  d.out_dim = 1;
  // Folds that do not divide evenly round UP: ceil(10/4)=3, ceil(6/4)=2.
  EXPECT_EQ(mvtu_layer_cycles(d, LayerFolding{4, 4}), 3 * 2);
  EXPECT_EQ(mvtu_layer_cycles(d, LayerFolding{10, 6}), 1);
  EXPECT_EQ(mvtu_layer_cycles(d, LayerFolding{3, 5}), 4 * 2);
}

TEST(Folding, TargetFpsUsesNonPowerOfTwoDivisors) {
  // Regression: the greedy upgrade must step to the NEXT channel divisor, not
  // double. For 48/96-channel convs the paper operating point lands on PE=6
  // for conv0 — a doubling-only search would jump 4 -> 8 and overshoot the
  // hardware cost. Pinned against the current (divisor-stepping) behavior.
  const nn::Model model = cnv48();
  const FoldingConfig f450 = folding_for_target_fps(model, 450.0, 100e6);
  ASSERT_EQ(f450.layers.size(), 3u);  // conv0, conv1, classifier
  EXPECT_EQ(f450.layers[0].pe, 6);    // divisor of 48, not a power of two
  EXPECT_EQ(f450.layers[0].simd, 1);
  EXPECT_EQ(f450.layers[1].pe, 96);
  EXPECT_EQ(f450.layers[1].simd, 2);
  EXPECT_EQ(f450.layers[2].pe, 1);
  EXPECT_EQ(f450.layers[2].simd, 1);
  EXPECT_NO_THROW(validate_folding(model, f450));

  const FoldingConfig f100 = folding_for_target_fps(model, 100.0, 100e6);
  EXPECT_EQ(f100.layers[0].pe, 2);
  EXPECT_EQ(f100.layers[1].pe, 48);  // divisor of 96 skipped by doubling from 1
  EXPECT_EQ(f100.layers[1].simd, 1);

  // Both targets are actually met.
  const std::vector<MvtuLayerDesc> layers = enumerate_mvtu_layers(model);
  for (const auto* f : {&f450, &f100}) {
    std::int64_t worst = 0;
    for (std::size_t i = 0; i < layers.size(); ++i) {
      worst = std::max(worst, mvtu_layer_cycles(layers[i], f->layers[i]));
    }
    EXPECT_GE(1e8 / static_cast<double>(worst), f == &f450 ? 450.0 : 100.0);
  }
}

TEST(Folding, TargetFpsReached) {
  const nn::Model& model = trained_cnv_w2a2();
  const double clock = 100e6;
  for (double target : {100.0, 450.0, 1000.0}) {
    FoldingConfig f = folding_for_target_fps(model, target, clock);
    EXPECT_NO_THROW(validate_folding(model, f));
    const std::vector<MvtuLayerDesc> layers = enumerate_mvtu_layers(model);
    std::int64_t worst = 0;
    for (std::size_t i = 0; i < layers.size(); ++i) {
      worst = std::max(worst, mvtu_layer_cycles(layers[i], f.layers[i]));
    }
    EXPECT_LE(clock / static_cast<double>(worst) + 1e-6, target * 8.0)
        << "greedy overshoot too large";
    EXPECT_GE(clock / static_cast<double>(worst) + 1e-6, target)
        << "target " << target << " not reached";
  }
}

TEST(Folding, UnreachableTargetFullyUnrolls) {
  // An absurd target stops at full unroll instead of looping forever.
  const nn::Model& model = trained_cnv_w2a2();
  FoldingConfig f = folding_for_target_fps(model, 1e12, 100e6);
  EXPECT_NO_THROW(validate_folding(model, f));
}

}  // namespace
}  // namespace adaflow::hls

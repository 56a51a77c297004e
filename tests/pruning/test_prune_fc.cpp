#include <gtest/gtest.h>

#include "adaflow/graph/builders.hpp"
#include "adaflow/graph/lower.hpp"
#include "adaflow/datasets/synthetic.hpp"
#include "adaflow/hls/accelerator.hpp"
#include "adaflow/nn/loss.hpp"
#include "adaflow/nn/mlp.hpp"
#include "adaflow/nn/trainer.hpp"
#include "adaflow/pruning/prune.hpp"

namespace adaflow::pruning {
namespace {

/// A small trained TFC shared by the FC-pruning tests.
const nn::Model& tfc() {
  static const nn::Model model = [] {
    datasets::DatasetSpec spec = datasets::synth_mnist_spec(300, 100);
    const datasets::SyntheticDataset ds = datasets::generate(spec);
    nn::Model m = graph::lower_model(graph::from_mlp(nn::tfc_w1a2(spec.classes)), 5);
    nn::TrainConfig tc;
    tc.epochs = 2;
    tc.lr = 0.02f;
    tc.augment = false;
    nn::Trainer(tc).fit(m, ds.train);
    return m;
  }();
  return model;
}

const hls::FoldingConfig& tfc_folding() {
  static const hls::FoldingConfig f = hls::folding_for_target_fps(tfc(), 5000.0, 100e6);
  return f;
}

PruneOptions fc_on() {
  PruneOptions o;
  o.prune_fc_neurons = true;
  return o;
}

TEST(PruneFc, DisabledByDefaultLeavesFcIntact) {
  PruneResult r = dataflow_aware_prune(tfc(), tfc_folding(), 0.5);
  EXPECT_TRUE(r.layers.empty());  // no conv layers, FC pruning off
  EXPECT_EQ(r.achieved_rate, 0.0);
  EXPECT_EQ(r.model.param_count(), tfc().param_count());
}

TEST(PruneFc, PrunesHiddenNeuronsNotClassifier) {
  PruneResult r = dataflow_aware_prune(tfc(), tfc_folding(), 0.5, fc_on());
  ASSERT_EQ(r.layers.size(), 3u);  // three hidden layers
  for (const LayerPruneInfo& info : r.layers) {
    EXPECT_LT(info.kept_channels, info.original_channels);
  }
  // Classifier width unchanged.
  const auto fcs = r.model.indices_of(nn::LayerKind::kLinear);
  EXPECT_EQ(r.model.layer_as<nn::Linear>(fcs.back()).out_features(), 10);
}

TEST(PruneFc, PrunedModelRunsAndValidates) {
  PruneResult r = dataflow_aware_prune(tfc(), tfc_folding(), 0.5, fc_on());
  EXPECT_NO_THROW(hls::validate_folding(r.model, tfc_folding()));
  datasets::DatasetSpec spec = datasets::synth_mnist_spec(10, 10);
  const datasets::SyntheticDataset ds = datasets::generate(spec);
  nn::Tensor out = r.model.forward(ds.test.sample(0), false);
  EXPECT_EQ(out.dim(1), 10);
}

TEST(PruneFc, CompilesAndLoadsIntoFlexibleDataflow) {
  const hls::InputQuantConfig iq;
  const hls::CompiledModel worst = hls::compile_model(tfc(), 0.0, iq);
  hls::DataflowAccelerator flex(hls::AcceleratorVariant::kFlexible, worst, tfc_folding());

  PruneResult r = dataflow_aware_prune(tfc(), tfc_folding(), 0.5, fc_on());
  r.model.set_name("tfc_p50");
  const hls::CompiledModel pruned = hls::compile_model(r.model, 0.5, iq);
  EXPECT_NO_THROW(flex.load_model(pruned));

  datasets::DatasetSpec spec = datasets::synth_mnist_spec(10, 10);
  const datasets::SyntheticDataset ds = datasets::generate(spec);
  nn::Tensor img = hls::snap_to_input_grid(ds.test.sample(0), iq);
  const int hw = flex.infer_class(img);
  nn::Tensor logits = r.model.forward(img, false);
  EXPECT_EQ(hw, nn::argmax_rows(logits)[0]);
}

class FcRateProperty : public ::testing::TestWithParam<int> {};

TEST_P(FcRateProperty, ConstraintsHoldAcrossRates) {
  const double rate = GetParam() / 100.0;
  PruneResult r = dataflow_aware_prune(tfc(), tfc_folding(), rate, fc_on());
  EXPECT_NO_THROW(hls::validate_folding(r.model, tfc_folding()));
  EXPECT_LE(r.achieved_rate, rate + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Sweep, FcRateProperty, ::testing::Values(0, 10, 25, 40, 55, 70, 85));

}  // namespace
}  // namespace adaflow::pruning

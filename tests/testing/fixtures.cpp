#include "testing/fixtures.hpp"

#include "adaflow/graph/builders.hpp"
#include "adaflow/graph/lower.hpp"
#include "adaflow/nn/trainer.hpp"

namespace adaflow::testing {

const datasets::SyntheticDataset& tiny_cifar() {
  static const datasets::SyntheticDataset dataset = [] {
    datasets::DatasetSpec spec = datasets::synth_cifar10_spec(400, 160);
    return datasets::generate(spec);
  }();
  return dataset;
}

const nn::CnvTopology& tiny_topology() {
  static const nn::CnvTopology topology = nn::cnv_w2a2(10, 8);
  return topology;
}

nn::Model tiny_model(std::uint64_t seed) {
  return graph::lower_model(graph::from_cnv(tiny_topology()), seed);
}

const nn::Model& trained_cnv_w2a2() {
  static const nn::Model model = [] {
    nn::Model m = tiny_model(7);
    nn::TrainConfig tc;
    tc.epochs = 3;
    tc.lr = 0.02f;
    tc.seed = 3;
    nn::Trainer(tc).fit(m, tiny_cifar().train);
    return m;
  }();
  return model;
}

const hls::FoldingConfig& tiny_folding() {
  static const hls::FoldingConfig folding =
      hls::folding_for_target_fps(trained_cnv_w2a2(), 450.0, 100e6);
  return folding;
}

}  // namespace adaflow::testing

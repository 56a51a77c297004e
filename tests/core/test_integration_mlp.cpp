#include <gtest/gtest.h>

#include <memory>

#include "adaflow/core/library_generator.hpp"
#include "adaflow/core/runtime_manager.hpp"
#include "adaflow/edge/server.hpp"
#include "adaflow/graph/builders.hpp"
#include "adaflow/nn/mlp.hpp"

namespace adaflow::core {
namespace {

/// The full AdaFlow flow over a fully-connected (TFC) model with FC-neuron
/// pruning — the pure-MLP dataflow path end to end.
const GeneratedLibrary& tfc_library() {
  static const GeneratedLibrary g = [] {
    LibraryConfig lc;
    lc.rates = {0.0, 0.4, 0.7};
    lc.base_epochs = 2;
    lc.retrain_epochs = 1;
    lc.prune_options.prune_fc_neurons = true;
    lc.target_base_fps = 2000.0;
    datasets::DatasetSpec spec = datasets::synth_mnist_spec(300, 120);
    const datasets::SyntheticDataset dataset = datasets::generate(spec);
    LibraryGenerator gen(fpga::zcu104(), lc);
    return gen.generate_graph(graph::from_mlp(nn::tfc_w1a2(spec.classes)), dataset);
  }();
  return g;
}

TEST(IntegrationMlp, LibraryGeneratedFromMlpModel) {
  const AcceleratorLibrary& lib = tfc_library().table;
  EXPECT_EQ(lib.model_name, "TFCW1A2");
  EXPECT_EQ(lib.dataset_name, "SynthMNIST");
  ASSERT_EQ(lib.versions.size(), 3u);
}

TEST(IntegrationMlp, NeuronPruningRaisesThroughput) {
  const AcceleratorLibrary& lib = tfc_library().table;
  EXPECT_GT(lib.versions[1].fps_fixed, lib.versions[0].fps_fixed);
  EXPECT_GT(lib.versions[2].fps_fixed, lib.versions[1].fps_fixed);
}

TEST(IntegrationMlp, VersionsRunOnFlexibleAccelerator) {
  const GeneratedLibrary& g = tfc_library();
  hls::DataflowAccelerator flex(hls::AcceleratorVariant::kFlexible, g.compiled[0], g.folding);
  datasets::DatasetSpec spec = datasets::synth_mnist_spec(10, 10);
  const datasets::SyntheticDataset ds = datasets::generate(spec);
  for (const hls::CompiledModel& version : g.compiled) {
    EXPECT_NO_THROW(flex.load_model(version)) << version.version;
    const int cls = flex.infer_class(ds.test.sample(0));
    EXPECT_GE(cls, 0);
    EXPECT_LT(cls, 10);
  }
}

TEST(IntegrationMlp, RuntimeManagerDrivesTfcLibrary) {
  const AcceleratorLibrary& lib = tfc_library().table;
  RuntimeManagerConfig rmc;
  rmc.accuracy_threshold = 0.5;  // wide-open so all versions are eligible
  RuntimeManager rm(lib, rmc);
  edge::WorkloadTrace trace(edge::scenario2(), 77);
  edge::RunMetrics m = edge::run_simulation(trace, rm, edge::ServerConfig{}, 78);
  EXPECT_GT(m.processed, 0);
  EXPECT_LE(m.processed + m.lost, m.arrived);
}

}  // namespace
}  // namespace adaflow::core

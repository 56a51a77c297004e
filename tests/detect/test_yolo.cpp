/// YOLO topology + detection-library battery: graph construction (branchy
/// head, pruning semantics, hash behaviour across rates) and the
/// geometry-only library sweep (monotone FPS/accuracy ladder, valid shared
/// folding, topology-hash stamping, sub-reconfig flexible switches).

#include "adaflow/detect/yolo.hpp"

#include <gtest/gtest.h>

#include "adaflow/common/error.hpp"
#include "adaflow/fpga/device.hpp"
#include "adaflow/graph/lower.hpp"
#include "adaflow/hls/accelerator.hpp"
#include "adaflow/hls/folding.hpp"

namespace adaflow::detect {
namespace {

TEST(YoloTopology, ValidateCatchesBadShapes) {
  YoloTopology t = yolo_tiny();
  t.input_dim = 40;  // 40 -> 20 -> 10 -> 5: stage 3 cannot halve
  EXPECT_THROW(t.validate(), ConfigError);
  t = yolo_tiny();
  t.backbone_channels = {16};  // head needs the last two stages
  EXPECT_THROW(t.validate(), ConfigError);
  t = yolo_tiny();
  t.backbone_channels = {16, 32, 64, 128, 256, 512};  // 64 / 2^6 < 2
  EXPECT_THROW(t.validate(), ConfigError);
  EXPECT_EQ(yolo_tiny().head_out_channels(), 3 * (5 + 4));
}

TEST(YoloGraph, BranchyHeadShapesAreCorrect) {
  const YoloTopology topology = yolo_tiny();
  const graph::Graph g = yolo_graph(topology);
  const std::vector<graph::TensorShape> shapes = g.infer_shapes();

  // Two detection outputs: the coarse grid on the deepest map, the fine grid
  // one pyramid level up (input 64: stem halves to 32, three pools to 4).
  const std::vector<std::int64_t> outs = g.output_ids();
  ASSERT_EQ(outs.size(), 2u);
  const graph::TensorShape coarse = shapes[static_cast<std::size_t>(outs[0])];
  const graph::TensorShape fine = shapes[static_cast<std::size_t>(outs[1])];
  EXPECT_EQ(coarse.channels, topology.head_out_channels());
  EXPECT_EQ(fine.channels, topology.head_out_channels());
  EXPECT_EQ(coarse.dim, 4);
  EXPECT_EQ(fine.dim, 8);
}

TEST(YoloGraph, PruningKeepsDetectionOutputWidths) {
  const YoloTopology topology = yolo_tiny();
  const graph::Graph pruned = yolo_graph(topology, 0.6);
  pruned.validate();
  for (std::int64_t id = 0; id < static_cast<std::int64_t>(pruned.size()); ++id) {
    const graph::Node& n = pruned.node(id);
    if (n.kind != graph::NodeKind::kConv) {
      continue;
    }
    if (n.name.rfind("det_", 0) == 0) {
      EXPECT_EQ(n.ch_out, topology.head_out_channels()) << n.name;
    } else {
      // Pruned widths land on even counts floored at 4.
      EXPECT_GE(n.ch_out, 4) << n.name;
      EXPECT_EQ(n.ch_out % 2, 0) << n.name;
      EXPECT_LT(n.ch_out, topology.backbone_channels.back()) << n.name;
    }
  }
}

TEST(YoloGraph, HashSeparatesPruningRatesButNotReruns) {
  const YoloTopology topology = yolo_tiny();
  EXPECT_EQ(yolo_graph(topology, 0.3).topology_hash(),
            yolo_graph(topology, 0.3).topology_hash());
  EXPECT_NE(yolo_graph(topology, 0.0).topology_hash(),
            yolo_graph(topology, 0.3).topology_hash());
}

TEST(DetectionLibraryConfig, ValidateRejectsBadSweeps) {
  DetectionLibraryConfig config;
  config.rates = {0.15, 0.3};  // must start unpruned
  EXPECT_THROW(config.validate(), ConfigError);
  config = DetectionLibraryConfig{};
  config.rates = {0.0, 0.3, 0.3};  // strictly ascending
  EXPECT_THROW(config.validate(), ConfigError);
  config = DetectionLibraryConfig{};
  config.base_map = 1.4;
  EXPECT_THROW(config.validate(), ConfigError);
}

TEST(DetectionLibrary, LaddersFpsUpAndAccuracyDown) {
  const core::AcceleratorLibrary lib = detection_library(fpga::zcu104());
  ASSERT_EQ(lib.versions.size(), 5u);
  EXPECT_EQ(lib.dataset_name, "scene-density");
  for (std::size_t i = 1; i < lib.versions.size(); ++i) {
    const core::ModelVersion& prev = lib.versions[i - 1];
    const core::ModelVersion& cur = lib.versions[i];
    EXPECT_GT(cur.fps_fixed, prev.fps_fixed) << cur.version;
    EXPECT_GT(cur.fps_flexible, prev.fps_flexible) << cur.version;
    EXPECT_LT(cur.accuracy, prev.accuracy) << cur.version;
    EXPECT_GT(cur.achieved_rate, prev.achieved_rate) << cur.version;
  }
  // Pruning a detector must never cost more Fixed-variant area than the
  // unpruned build.
  const double base_luts = lib.versions.front().resources_fixed.luts;
  for (const core::ModelVersion& v : lib.versions) {
    EXPECT_LE(v.resources_fixed.luts, base_luts * (1.0 + 1e-9)) << v.version;
    // Fast flexible switches stay far under a full reconfiguration.
    EXPECT_GT(v.flexible_switch_time_s, 0.0) << v.version;
    EXPECT_LT(v.flexible_switch_time_s, lib.reconfig_time_s) << v.version;
  }
}

TEST(DetectionLibrary, CarriesTheUnprunedGraphHashAndAValidFolding) {
  const YoloTopology topology = yolo_tiny();
  const core::AcceleratorLibrary lib = detection_library(fpga::zcu104(), topology);
  EXPECT_EQ(lib.topology_hash, yolo_graph(topology).topology_hash());
  const hls::CompiledModel base = graph::lower_geometry(yolo_graph(topology));
  EXPECT_NO_THROW(hls::validate_folding(base, lib.folding_flexible));
  // The shared folding hits the configured operating point on the unpruned
  // detector.
  EXPECT_GE(lib.versions.front().fps_fixed, kDetectionTargetBaseFps);
}

TEST(DetectionLibrary, FunctionalAcceleratorRejectsBranchyStagesCleanly) {
  // The functional dataflow simulator streams a conv/pool/fc chain only. A
  // lowered detector, with a folding that validates, must be refused by name
  // at construction instead of being misread as a chain of MVTUs.
  const YoloTopology topology = yolo_tiny();
  const core::AcceleratorLibrary lib = detection_library(fpga::zcu104(), topology);
  const hls::CompiledModel base = graph::lower_geometry(yolo_graph(topology));
  std::string first_unsupported;
  for (const hls::CompiledStage& stage : base.stages) {
    if (!hls::is_mvtu_kind(stage.desc.kind) && stage.desc.kind != hls::StageKind::kPool) {
      first_unsupported = stage.desc.name;
      break;
    }
  }
  ASSERT_FALSE(first_unsupported.empty());
  for (hls::AcceleratorVariant variant :
       {hls::AcceleratorVariant::kFixed, hls::AcceleratorVariant::kFlexible}) {
    try {
      hls::DataflowAccelerator accel(variant, base, lib.folding_flexible);
      ADD_FAILURE() << "accelerator accepted a model with a concat/upsample stage";
    } catch (const FoldingError& e) {
      EXPECT_NE(std::string(e.what()).find(first_unsupported), std::string::npos) << e.what();
    }
  }
}

}  // namespace
}  // namespace adaflow::detect

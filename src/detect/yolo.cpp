#include "adaflow/detect/yolo.hpp"

#include <cmath>
#include <string>

#include "adaflow/common/error.hpp"
#include "adaflow/core/library_generator.hpp"
#include "adaflow/graph/lower.hpp"
#include "adaflow/hls/folding.hpp"

namespace adaflow::detect {

void YoloTopology::validate() const {
  require(!name.empty(), "YoloTopology.name must not be empty");
  require(input_channels > 0, "YoloTopology.input_channels must be positive");
  require(backbone_channels.size() >= 2,
          "YoloTopology needs at least two backbone stages (the head fuses the last two)");
  for (std::int64_t c : backbone_channels) {
    require(c >= 4, "YoloTopology backbone widths must be >= 4");
  }
  require(head_channels >= 4, "YoloTopology.head_channels must be >= 4");
  require(anchors > 0 && classes > 0, "YoloTopology needs positive anchors and classes");
  // Every backbone stage halves the spatial dim; the deepest map must stay
  // at least 2x2 so the upsample/concat fusion is well-formed.
  std::int64_t dim = input_dim;
  for (std::size_t i = 0; i < backbone_channels.size(); ++i) {
    require(dim % 2 == 0, "YoloTopology.input_dim must halve cleanly through every "
                          "backbone stage");
    dim /= 2;
  }
  require(dim >= 2, "YoloTopology.input_dim too small for the backbone depth");
}

YoloTopology yolo_tiny() { return YoloTopology{}; }

namespace {

/// mAP proxy of a pruned version: base_map * (1 - penalty * achieved^1.5).
constexpr double kPruneMapPenalty = 0.30;
/// Flexible dynamic-power floor (always-clocked control fabric fraction).
constexpr double kFlexibleToggleFloor = 0.35;

/// Channel-pruned width: nearest even count, floored at 4 (the paper's
/// dataflow-aware pruning keeps PE-friendly multiples; even widths keep the
/// folding heuristic's divisor search productive).
std::int64_t pruned_width(std::int64_t width, double rate) {
  const auto scaled = static_cast<std::int64_t>(std::llround(static_cast<double>(width) *
                                                             (1.0 - rate) / 2.0)) * 2;
  return std::max<std::int64_t>(4, scaled);
}

std::string version_name(const std::string& model, double rate) {
  return model + "@p" + std::to_string(static_cast<int>(std::llround(rate * 100)));
}

/// Weight/threshold payload a Flexible fast switch must stream, synthesized
/// onto the weights-free geometry so fpga::ReconfigModel prices it the same
/// way it prices trained CNV models: one level byte per weight, one
/// (2^act_bits - 1)-entry threshold bank per activation channel (the bare
/// detection outputs carry none).
hls::CompiledModel padded_for_switch_cost(hls::CompiledModel geometry, int act_bits) {
  const auto steps = static_cast<std::size_t>((1 << act_bits) - 1);
  for (std::size_t i = 0; i < geometry.stages.size(); ++i) {
    hls::CompiledStage& stage = geometry.stages[i];
    if (!hls::is_mvtu_kind(stage.desc.kind)) {
      continue;
    }
    stage.weight_levels.assign(
        static_cast<std::size_t>(stage.desc.ch_out * stage.desc.kernel * stage.desc.kernel *
                                 stage.desc.ch_in),
        0);
    const bool is_output = stage.desc.name == "det_coarse" || stage.desc.name == "det_fine";
    if (!is_output) {
      hls::ChannelThresholds bank;
      bank.thresholds.assign(steps, 0);
      stage.thresholds.channels.assign(static_cast<std::size_t>(stage.desc.ch_out), bank);
    }
  }
  return geometry;
}

}  // namespace

graph::Graph yolo_graph(const YoloTopology& topology, double rate) {
  topology.validate();
  require(rate >= 0.0 && rate < 1.0, "yolo_graph pruning rate must be in [0, 1)");

  graph::Graph g(topology.name, topology.input_channels, topology.input_dim, topology.quant);
  std::int64_t cur = g.input();
  std::int64_t fine_src = -1;  // second-deepest backbone map (the fusion branch)
  for (std::size_t i = 0; i < topology.backbone_channels.size(); ++i) {
    const std::string tag = std::to_string(i);
    const std::int64_t width = pruned_width(topology.backbone_channels[i], rate);
    if (i == 0) {
      // Patchify stem: a 2x2 stride-2 conv halves the dim without a pool. A
      // stride-1 3x3 stem on the 3 unprunable input channels would carry a
      // cycle floor no pruning rate can shrink, flattening the library's FPS
      // ladder to the stem's II.
      cur = g.add_conv("stem", cur, width, 2, 2, 0);
      cur = g.add_threshold("act" + tag, "bn" + tag, cur);
    } else {
      cur = g.add_conv("conv" + tag, cur, width, 3, 1, 1);
      cur = g.add_threshold("act" + tag, "bn" + tag, cur);
      cur = g.add_pool("pool" + tag, cur, 2);
    }
    if (i + 2 == topology.backbone_channels.size()) {
      fine_src = cur;  // branch point: feeds both the last stage and the fusion
    }
  }

  // Coarse head on the deepest map.
  const std::int64_t deep = cur;
  std::int64_t coarse = g.add_conv("head_coarse", deep, pruned_width(topology.head_channels, rate),
                                   3, 1, 1);
  coarse = g.add_threshold("head_coarse_act", "head_coarse_bn", coarse);
  g.add_conv("det_coarse", coarse, topology.head_out_channels(), 1, 1, 0);

  // Fine head: upsample the deepest map back to the branch resolution and
  // fuse with the second-deepest pooled map — up2 exactly undoes the last
  // stage's pool.
  const std::int64_t up = g.add_upsample("up2", deep, 2);
  const std::int64_t fused = g.add_concat("fuse", {up, fine_src});
  std::int64_t fine = g.add_conv("head_fine", fused, pruned_width(topology.head_channels, rate),
                                 3, 1, 1);
  fine = g.add_threshold("head_fine_act", "head_fine_bn", fine);
  g.add_conv("det_fine", fine, topology.head_out_channels(), 1, 1, 0);

  g.validate();
  return g;
}

void DetectionLibraryConfig::validate() const {
  require(!rates.empty(), "detection library needs at least one pruning rate");
  require(rates.front() == 0.0, "the first detection library rate must be 0 (unpruned)");
  for (std::size_t i = 0; i < rates.size(); ++i) {
    require(rates[i] >= 0.0 && rates[i] < 1.0,
            "detection library rate " + std::to_string(i) + " must be in [0, 1)");
    require(i == 0 || rates[i] > rates[i - 1],
            "detection library rates must be strictly ascending");
  }
  require(base_map > 0.0 && base_map <= 1.0, "DetectionLibraryConfig.base_map must be in (0, 1]");
}

core::AcceleratorLibrary detection_library(const fpga::FpgaDevice& device,
                                           const YoloTopology& topology,
                                           const DetectionLibraryConfig& config) {
  config.validate();
  const graph::Graph base_graph = yolo_graph(topology, 0.0);
  const hls::CompiledModel base_geom = graph::lower_geometry(base_graph);
  const int weight_bits = topology.quant.weight_bits;
  const int act_bits = topology.quant.act_bits;

  // Shared worst-case folding, sized on the unpruned geometry. Pruned
  // versions keep it (the untuned generator path): the runtime channel
  // bounds just lower the fold counts, which is what perf's ceil-folded
  // cycle model computes.
  const hls::FoldingConfig folding =
      hls::folding_for_target_fps(base_geom, kDetectionTargetBaseFps, device.clock_hz);
  hls::validate_folding(base_geom, folding);

  core::AcceleratorLibrary lib;
  lib.model_name = topology.name;
  lib.dataset_name = "scene-density";
  lib.topology_hash = base_graph.topology_hash();
  lib.base_accuracy = config.base_map;
  const core::LibraryPricer pricer(device, weight_bits, act_bits,
                                   fpga::default_resource_constants(),
                                   fpga::default_power_constants(), kFlexibleToggleFloor);

  // Prunable conv volume of the base graph (for the achieved-rate readout):
  // every conv except the fixed-width 1x1 detection outputs.
  const auto prunable_sum = [](const graph::Graph& g) {
    std::int64_t sum = 0;
    for (std::int64_t id = 0; id < static_cast<std::int64_t>(g.size()); ++id) {
      const graph::Node& n = g.node(id);
      if (n.kind == graph::NodeKind::kConv && n.name.rfind("det_", 0) != 0) {
        sum += n.ch_out;
      }
    }
    return sum;
  };
  const std::int64_t base_prunable = prunable_sum(base_graph);

  for (double rate : config.rates) {
    const graph::Graph pruned = yolo_graph(topology, rate);
    hls::CompiledModel compiled = graph::lower_geometry(pruned);
    compiled.version = version_name(topology.name, rate);
    compiled.pruning_rate = rate;

    core::ModelVersion v;
    v.version = compiled.version;
    v.requested_rate = rate;
    v.achieved_rate = 1.0 - static_cast<double>(prunable_sum(pruned)) /
                                static_cast<double>(base_prunable);
    v.accuracy = std::max(
        0.05, config.base_map *
                  (1.0 - kPruneMapPenalty * std::pow(v.achieved_rate, 1.5)));
    compiled.accuracy = v.accuracy;
    pricer.price_version(v, compiled, folding, folding,
                         padded_for_switch_cost(compiled, act_bits));
    lib.versions.push_back(std::move(v));
  }
  pricer.price_shared(lib, base_geom, folding);
  return lib;
}

}  // namespace adaflow::detect

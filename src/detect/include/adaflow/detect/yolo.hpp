#pragma once

/// \file yolo.hpp
/// YOLO-style tiny detection topology on the graph IR, and the geometry-only
/// detection library generator. The backbone is a conv/pool pyramid; the
/// head is branchy — the deepest feature map detects at a coarse grid while
/// an upsample + concat path fuses it with the earlier, finer map for a
/// second detection grid. Exactly the shapes the graph IR exists for: the
/// hard-coded CNV builder could never express the branch.
///
/// detection_library() is the Library Generator's detection counterpart,
/// but weights-free: it sweeps channel-pruning rates over the yolo graph,
/// lowers each pruned variant to hls geometry, and prices it with the same
/// analytical perf / resource / power / reconfig models the CNV path uses.
/// Detection quality per version comes from an analytic mAP-proxy curve
/// (pruning a detection head degrades localization superlinearly) instead
/// of a training loop — the serving layers only consume the (fps, accuracy,
/// power) rows, so the library is drop-in for the Runtime Manager, the
/// fleet, and the dse tuner.

#include <cstdint>
#include <vector>

#include "adaflow/core/library.hpp"
#include "adaflow/fpga/device.hpp"
#include "adaflow/fpga/power.hpp"
#include "adaflow/graph/graph.hpp"

namespace adaflow::detect {

/// Parameters of the tiny YOLO-style graph.
struct YoloTopology {
  std::string name = "YoloTinyW4A4";
  std::int64_t input_channels = 3;
  std::int64_t input_dim = 64;
  /// Backbone conv widths. The first entry is the patchify stem — a 2x2
  /// stride-2 conv that halves the spatial dim immediately (a stride-1 3x3
  /// stem on 3 input channels has a hard full-unroll cycle floor that would
  /// pin every pruned version to the same FPS); each later entry is
  /// conv(3x3, pad 1) + threshold + 2x2 pool, halving the dim again.
  std::vector<std::int64_t> backbone_channels = {16, 32, 64, 128};
  std::int64_t head_channels = 64;  ///< 3x3 conv width of each detection head
  std::int64_t anchors = 3;
  std::int64_t classes = 4;
  graph::QuantInfo quant{4, 4, 0.5f};

  /// Channels of one detection output: anchors * (box(4) + objectness + classes).
  std::int64_t head_out_channels() const { return anchors * (5 + classes); }

  /// Throws ConfigError naming the offending field.
  void validate() const;
};

YoloTopology yolo_tiny();

/// Builds the detection graph: backbone pyramid, coarse head on the deepest
/// map, and a fine head on upsample(deepest) ++ second-deepest. \p rate
/// channel-prunes every conv EXCEPT the 1x1 detection outputs (their width
/// is fixed by anchors/classes); widths land on max(4, even) counts.
graph::Graph yolo_graph(const YoloTopology& topology, double rate = 0.0);

/// The detection library's shared worst-case folding is sized for this FPS
/// on the unpruned detector.
inline constexpr double kDetectionTargetBaseFps = 900.0;

/// Geometry-only library sweep configuration.
struct DetectionLibraryConfig {
  std::vector<double> rates = {0.0, 0.15, 0.30, 0.45, 0.60};
  double base_map = 0.82;          ///< mAP proxy of the unpruned detector

  /// Throws ConfigError naming the offending field.
  void validate() const;
};

/// Sweeps \p config.rates over yolo_graph(topology, rate) and fills a
/// core::AcceleratorLibrary priced by the analytical models — every version
/// carries the shared worst-case folding (the untuned generator path). The
/// library's topology_hash is the unpruned graph's, so the TSV cache can
/// never hand a CNV library to a detection run or vice versa.
core::AcceleratorLibrary detection_library(const fpga::FpgaDevice& device,
                                           const YoloTopology& topology = yolo_tiny(),
                                           const DetectionLibraryConfig& config = {});

}  // namespace adaflow::detect

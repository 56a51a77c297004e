#pragma once

/// \file library_generator.hpp
/// AdaFlow's design-time step (paper Fig. 4, left): from an initial CNN model
/// + training dataset + FINN folding configuration, sweep the pruning rate,
/// retrain every pruned version, compile it for the dataflow, and record the
/// accuracy / throughput / resource / power profile of each version into the
/// AcceleratorLibrary consumed by the Runtime Manager.

#include <optional>
#include <string>
#include <vector>

#include "adaflow/core/library.hpp"
#include "adaflow/datasets/synthetic.hpp"
#include "adaflow/graph/graph.hpp"
#include "adaflow/fpga/device.hpp"
#include "adaflow/fpga/power.hpp"
#include "adaflow/fpga/reconfig.hpp"
#include "adaflow/hls/accelerator.hpp"
#include "adaflow/nn/cnv.hpp"
#include "adaflow/perf/perf.hpp"
#include "adaflow/pruning/prune.hpp"

namespace adaflow::core {

struct LibraryConfig {
  /// Pruning-rate sweep; the paper uses 0% to 85% in 5% steps (18 models).
  std::vector<double> rates = default_rates();
  int base_epochs = 8;       ///< initial-model training epochs
  int retrain_epochs = 3;    ///< post-pruning retraining (paper: 40 on GPU)
  float base_lr = 0.02f;
  float retrain_lr = 0.005f;
  std::int64_t batch_size = 32;
  std::uint64_t seed = 7;

  /// Folding is derived so the unpruned accelerator lands near this
  /// throughput at the device clock (the paper's CNV operating point).
  double target_base_fps = 450.0;

  /// Folding auto-tuning through the design-space explorer (src/dse). Off by
  /// default (the folding_for_target_fps heuristic is used). When on:
  ///  - the shared worst-case folding is the cheapest one sustaining
  ///    target_base_fps within 80% of the device
  ///    (min-resources objective, pruning-granularity constrained so the 5%
  ///    rate sweep stays fine-grained) — the Flexible accelerator ships it;
  ///  - every Fixed version gets a max-fps folding retuned to its pruned
  ///    channel counts under the unpruned Fixed accelerator's area (equal-area
  ///    dominance over the untuned library).
  /// Whenever a search is infeasible the generator logs a warning and falls
  /// back to the heuristic folding.
  bool tune_folding = false;
  int tune_anneal_iters = 800;  ///< annealing refinement per search

  hls::InputQuantConfig input_quant;
  pruning::PruneOptions prune_options;
  fpga::ResourceModelConstants resource_constants = fpga::default_resource_constants();
  fpga::PowerModelConstants power_constants = fpga::default_power_constants();

  /// Relative toggle activity of unfed flexible logic: busy power on the
  /// flexible accelerator scales between this floor (everything pruned away)
  /// and 1.0 (worst-case model loaded), quadratically in the active fraction.
  double flexible_toggle_floor = 0.30;

  static std::vector<double> default_rates();
};

/// The hardware columns of a library, priced for one device, its resource
/// and power constants and the graph's precisions. LibraryGenerator and
/// detect::detection_library both price their rows here; only their inputs
/// differ (the per-version Fixed folding, and the geometry the fast switch
/// streams).
class LibraryPricer {
 public:
  LibraryPricer(const fpga::FpgaDevice& device, int weight_bits, int act_bits,
                const fpga::ResourceModelConstants& resource_constants,
                const fpga::PowerModelConstants& power_constants,
                double flexible_toggle_floor);

  /// One version's perf columns (on its own Fixed folding and on the shared
  /// Flexible \p flexible_folding), its Fixed accelerator's resources and
  /// power, and its fast-switch time (streaming \p switch_geometry). Reads
  /// nothing but its arguments, so versions can be priced in any order.
  void price_version(ModelVersion& v, const hls::CompiledModel& compiled,
                     const hls::FoldingConfig& fixed_folding,
                     const hls::FoldingConfig& flexible_folding,
                     const hls::CompiledModel& switch_geometry) const;

  /// The device columns, the two shared accelerators (original FINN and
  /// Flexible, both sized on \p worstcase under \p folding) and every row's
  /// Flexible power: toggle activity follows the active MAC volume,
  /// quadratically in the surviving channel fraction, floored at the
  /// always-clocked control fabric (the unpruned row runs at full activity).
  void price_shared(AcceleratorLibrary& library, const hls::CompiledModel& worstcase,
                    const hls::FoldingConfig& folding) const;

 private:
  int weight_bits_;
  int act_bits_;
  fpga::ResourceModelConstants resource_constants_;
  double idle_activity_;
  double flexible_toggle_floor_;
  fpga::PowerModel power_;
  fpga::ReconfigModel reconfig_;
};

/// Library plus the design-time artifacts (kept for functional use:
/// examples run real inferences through these).
struct GeneratedLibrary {
  AcceleratorLibrary table;
  hls::FoldingConfig folding;
  nn::Model base_model;                         ///< trained unpruned model
  std::vector<hls::CompiledModel> compiled;     ///< one per version (same order)
};

class LibraryGenerator {
 public:
  LibraryGenerator(fpga::FpgaDevice device, LibraryConfig config)
      : device_(std::move(device)), config_(std::move(config)) {}

  /// Runs the full design-time flow for one (initial CNN, dataset) pair:
  /// generate_graph over graph::from_cnv(topology).
  GeneratedLibrary generate(const nn::CnvTopology& topology,
                            const datasets::SyntheticDataset& dataset) const;

  /// The design-time flow for any linear-chain graph (CNV, TFC, ...):
  /// graph::lower_model builds the trainable model (branchy graphs take the
  /// geometry-based detection route in src/detect), graph::lower_geometry
  /// the stage list the folding and area models read. Quantization
  /// precisions are the graph's, and the table's topology_hash is the
  /// graph's.
  GeneratedLibrary generate_graph(const graph::Graph& graph,
                                  const datasets::SyntheticDataset& dataset) const;

  const LibraryConfig& config() const { return config_; }

 private:
  fpga::FpgaDevice device_;
  LibraryConfig config_;
};

/// Cache wrapper: loads \p cache_path if present, otherwise generates the
/// library (table only) and saves it. Keeps bench start-up fast. The cache
/// is keyed on the topology hash: a cache whose hash differs from
/// \p topology's graph (or with a stale schema, or corrupt) is discarded
/// with a warning and transparently regenerated.
AcceleratorLibrary load_or_generate_library(const std::string& cache_path,
                                            const fpga::FpgaDevice& device,
                                            const LibraryConfig& config,
                                            const nn::CnvTopology& topology,
                                            const datasets::DatasetSpec& dataset_spec);

}  // namespace adaflow::core

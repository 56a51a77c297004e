#pragma once

/// \file library.hpp
/// AdaFlow's Library (paper Section IV-B1): the design-time table of pruned
/// CNN model versions with their accuracy, throughput, resource and power
/// profiles, for both accelerator types — Fixed-Pruning (one accelerator per
/// version, switch = FPGA reconfiguration) and Flexible-Pruning (one
/// worst-case accelerator per initial CNN, fast model switch).

#include <cstdint>
#include <string>
#include <vector>

#include "adaflow/edge/policy.hpp"
#include "adaflow/fpga/resources.hpp"
#include "adaflow/hls/folding.hpp"
#include "adaflow/hls/modules.hpp"

namespace adaflow::core {

/// One pruned CNN model version (a row of the library table).
struct ModelVersion {
  std::string version;        ///< e.g. "CNVW2A2@p25"
  double requested_rate = 0;  ///< library sweep rate (0.00 .. 0.85)
  double achieved_rate = 0;   ///< after dataflow-aware adjustment
  double accuracy = 0;        ///< TOP-1 test accuracy after retraining

  // Performance (from the analytical dataflow model).
  double fps_fixed = 0;
  double fps_flexible = 0;
  double latency_fixed_s = 0;
  double latency_flexible_s = 0;

  // This version's own Fixed-Pruning accelerator. The folding is per-version:
  // the auto-tuner (src/dse) retunes PE/SIMD to the pruned channel counts;
  // without tuning every version carries the shared worst-case folding.
  hls::FoldingConfig folding_fixed;
  fpga::ResourceUsage resources_fixed;
  double power_busy_fixed_w = 0;
  double power_idle_fixed_w = 0;

  // Operating points on the shared Flexible-Pruning accelerator.
  double power_busy_flexible_w = 0;
  double power_idle_flexible_w = 0;
  double flexible_switch_time_s = 0;  ///< fast model-switch cost
};

/// The library of one (initial CNN, dataset) pair.
struct AcceleratorLibrary {
  std::string model_name;
  std::string dataset_name;
  /// graph::Graph::topology_hash() of the unpruned topology this library was
  /// generated from (0 = unknown/synthetic). Keys the TSV cache: a CNV cache
  /// can never be mistaken for a detection cache with the same path.
  std::uint64_t topology_hash = 0;
  double base_accuracy = 0;  ///< accuracy of the unpruned version
  double clock_hz = 100e6;
  double reconfig_time_s = 0;  ///< full FPGA reconfiguration

  fpga::ResourceUsage resources_finn;      ///< original FINN (fixed, unpruned)
  fpga::ResourceUsage resources_flexible;  ///< worst-case flexible accelerator
  hls::FoldingConfig folding_flexible;     ///< shared worst-case-feasible folding
  double finn_power_busy_w = 0;
  double finn_power_idle_w = 0;

  std::vector<ModelVersion> versions;  ///< ascending pruning rate; [0] unpruned

  const ModelVersion& unpruned() const;
  const ModelVersion& at_rate(double requested_rate) const;  ///< closest row
  /// Row of \p version, or versions.size() when the name is not in this
  /// library (a device may run a mode from another library).
  std::size_t find(const std::string& version) const;
  /// find() for a name that must be present: throws NotFoundError otherwise.
  std::size_t index_of(const std::string& version) const;
};

/// The operating point library row \p version serves on \p variant: its own
/// Fixed-Pruning accelerator (fps_fixed and the fixed power pair, labelled
/// "Fixed@<version>") or the shared Flexible-Pruning one (the flexible
/// columns, labelled hls::variant_name(kFlexible)).
edge::ServingMode serving_mode(const AcceleratorLibrary& library, std::size_t version,
                               hls::AcceleratorVariant variant);

/// The accelerator type a serving mode's label names (edge::is_flexible);
/// the original FINN baseline counts as Fixed.
hls::AcceleratorVariant variant_of(const edge::ServingMode& mode);

/// The switch to serving_mode(library, version, target) while \p live is the
/// loaded accelerator type (paper Section IV-B2): a Fixed target loads a new
/// bitstream, a full reconfiguration of reconfig_time_s; Flexible to Flexible
/// is the fast in-place model switch of the row's flexible_switch_time_s;
/// Fixed to Flexible is one "Change of Dataflow" reconfiguration that brings
/// the Flexible accelerator in.
edge::SwitchAction switch_to(const AcceleratorLibrary& library, std::size_t version,
                             hls::AcceleratorVariant target, hls::AcceleratorVariant live);

/// Hand-built library with monotone accuracy/FPS profiles, shaped like the
/// paper's CNV-on-ZCU104 table but requiring no training: version i runs at
/// base_fps * fps_growth^i with accuracy declining from base_accuracy. Used
/// by serving-layer tests, the fleet bench/example, and the CLI when no
/// generated library is supplied.
AcceleratorLibrary synthetic_library(int versions = 4, double base_fps = 500.0,
                                     double base_accuracy = 0.90,
                                     double reconfig_time_s = 0.145,
                                     double fps_growth = 1.45);

/// \p scale multiplies every FPS figure of \p library (both accelerator
/// types), modelling the same library deployed on a faster or slower FPGA —
/// the heterogeneous-fleet building block.
AcceleratorLibrary scale_library_fps(const AcceleratorLibrary& library, double scale);

/// Text (TSV) round-trip for caching generated libraries across bench runs.
/// The on-disk schema is versioned (header line "adaflow-library <version>");
/// load_library throws ConfigError on a missing magic, an older/unknown
/// schema version, or a truncated body — callers regenerate on that error.
void save_library(const AcceleratorLibrary& library, const std::string& path);
AcceleratorLibrary load_library(const std::string& path);
bool library_cache_exists(const std::string& path);

/// Renders the table the Library Generator produces (for examples/benches).
std::string render_library_table(const AcceleratorLibrary& library);

}  // namespace adaflow::core

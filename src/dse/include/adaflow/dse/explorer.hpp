#pragma once

/// \file explorer.hpp
/// Deterministic, seeded design-space exploration over per-layer (PE, SIMD)
/// folding under an FPGA resource budget.
///
/// Strategy: the steady-state initiation interval of a feed-forward dataflow
/// pipeline is the max per-stage cycle count, and resources are additive, so
/// the explorer sweeps the (finite) set of achievable initiation intervals
/// and, for each, finds a cheap folding meeting it — exhaustively when the
/// whole lattice is small, with a per-layer beam search otherwise — then
/// refines the incumbent with seeded simulated annealing. Every feasible
/// point feeds one Pareto frontier (throughput vs. resources); the objective
/// only decides which frontier point is "best".
///
/// Determinism: candidate orders are sorted with explicit tie-breaking,
/// parallel evaluation writes to pre-assigned slots, and the annealer draws
/// from an explicit Rng(seed) — the same seed always returns a bit-identical
/// frontier.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "adaflow/dse/search_space.hpp"
#include "adaflow/fpga/device.hpp"
#include "adaflow/graph/graph.hpp"

namespace adaflow::dse {

enum class Objective {
  kMaxFps,        ///< max throughput that fits the resource budget
  kMinResources,  ///< cheapest folding meeting a target data rate
  kBalanced,      ///< knee: max throughput per unit of the scarcest resource
};

const char* objective_name(Objective objective);
Objective objective_by_name(const std::string& name);  ///< throws ConfigError
std::vector<std::string> objective_names();

struct ExplorerConfig {
  Objective objective = Objective::kMaxFps;

  /// Resource cap: either an absolute usage, or this fraction of the device.
  std::optional<fpga::ResourceUsage> budget;
  double budget_fraction = 0.7;

  /// Required for kMinResources: the data rate the folding must sustain.
  double target_fps = 0.0;

  hls::AcceleratorVariant variant = hls::AcceleratorVariant::kFixed;
  SearchConstraints constraints;

  int beam_width = 8;        ///< beam states kept per layer (>= 1)
  int anneal_iters = 2000;   ///< simulated-annealing refinement steps (0 = off)
  std::uint64_t seed = 7;    ///< annealer seed; same seed => same frontier

  fpga::ResourceModelConstants resource_constants = fpga::default_resource_constants();
};

/// One fully-evaluated folding.
struct DesignPoint {
  hls::FoldingConfig folding;
  double fps = 0.0;
  double latency_s = 0.0;
  std::int64_t ii_cycles = 0;
  fpga::ResourceUsage resources;
  /// MVTU layer limiting the pipeline, or -1 when a pool stage does.
  std::int64_t bottleneck_layer = -1;
};

/// Per-layer slice of a DesignPoint (the bottleneck breakdown tables).
struct LayerReport {
  std::string name;
  std::int64_t pe = 0;
  std::int64_t simd = 0;
  std::int64_t cycles = 0;
  double luts = 0.0;
  double bram18 = 0.0;
  bool is_bottleneck = false;
};

struct ExplorationResult {
  /// Non-dominated feasible points, fastest first (ties: fewer LUTs).
  std::vector<DesignPoint> frontier;
  std::size_t best_index = 0;  ///< objective winner within frontier
  bool objective_met = true;   ///< false when e.g. target_fps is unreachable
  bool exhaustive = false;     ///< whole lattice enumerated
  std::int64_t evaluated = 0;  ///< design points scored
  double space_size = 0.0;     ///< full lattice cardinality
  fpga::ResourceUsage budget;  ///< resolved absolute budget

  /// The objective's pick; throws ConfigError when the frontier is empty
  /// (no folding fits the budget).
  const DesignPoint& best() const;
};

/// Explores the folding lattice of \p geometry. \p weight_bits / \p act_bits
/// parameterize the resource model (StageDescs carry no precisions).
ExplorationResult explore_geometry(const hls::CompiledModel& geometry, int weight_bits,
                                   int act_bits, const fpga::FpgaDevice& device,
                                   const ExplorerConfig& config);

/// Convenience wrapper: geometry from graph::lower_geometry, precisions from
/// the graph's quantization (no weights are built or trained).
ExplorationResult explore(const graph::Graph& graph, const fpga::FpgaDevice& device,
                          const ExplorerConfig& config);

/// Recomputes the per-layer breakdown of \p point against \p space.
std::vector<LayerReport> layer_breakdown(const SearchSpace& space, const DesignPoint& point);

}  // namespace adaflow::dse

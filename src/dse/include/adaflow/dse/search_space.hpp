#pragma once

/// \file search_space.hpp
/// The per-layer (PE, SIMD) folding lattice the design-space explorer walks.
///
/// Every MVTU layer contributes one axis pair: PE ranges over the divisors of
/// ch_out, SIMD over the divisors of ch_in — the FINN folding legality rules
/// are built into the space, so no candidate ever needs an after-the-fact
/// validity filter. Each candidate is pre-scored with its per-frame cycle
/// count (perf model) and its stage resource cost (fpga model), so the
/// explorer's inner loop is pure arithmetic over precomputed rows.
///
/// Pruning-divisibility is a *search* constraint too: the dataflow-aware
/// pruner can only remove filters in steps of lcm(PE_i, SIMD_i+1)
/// (see pruning/prune.hpp), so a folding whose lcm granularity is coarser
/// than `max_prune_granularity * ch_out` would make the library's 5%-step
/// rate sweep collapse onto a few achievable rates. Such combinations are
/// excluded while searching, not discarded afterwards.

#include <cstdint>
#include <vector>

#include "adaflow/fpga/device.hpp"
#include "adaflow/fpga/resources.hpp"
#include "adaflow/hls/compiled_model.hpp"
#include "adaflow/hls/folding.hpp"
#include "adaflow/perf/perf.hpp"

namespace adaflow::dse {

/// One (PE, SIMD) point of a layer's lattice, pre-evaluated.
struct FoldingCandidate {
  hls::LayerFolding folding;
  std::int64_t cycles = 0;        ///< per-frame MVTU cycles (variant-adjusted)
  fpga::ResourceUsage resources;  ///< fixed-variant stage cost
  double cost = 0.0;              ///< budget-normalized scalar resource cost
};

/// The lattice slice of one MVTU layer. Candidates are sorted by ascending
/// cost with deterministic (pe, simd) tie-breaking.
struct LayerSpace {
  hls::StageDesc desc;
  std::vector<FoldingCandidate> candidates;
  std::int64_t min_cycles = 0;  ///< fastest candidate (full unroll or caps)
};

/// Hard constraints applied while the space is built / walked.
struct SearchConstraints {
  std::int64_t max_pe = 0;    ///< cap on PE (0 = up to ch_out)
  std::int64_t max_simd = 0;  ///< cap on SIMD (0 = up to ch_in)
  /// Upper bound on lcm(PE_i, SIMD_i+1) / ch_out_i — the pruning-rate
  /// granularity a folding permits. 0 disables the constraint (single
  /// accelerators); the library generator sets it so every folding it ships
  /// still admits a fine-grained pruning sweep.
  double max_prune_granularity = 0.0;
};

/// The whole lattice plus everything folding-independent: pool-stage cycles
/// and the fixed resource overhead (pool stages + top-level glue).
struct SearchSpace {
  std::vector<LayerSpace> layers;      ///< MVTU layers in pipeline order
  std::int64_t pool_ii_cycles = 0;     ///< slowest pool stage (variant-adjusted)
  std::int64_t pool_latency_cycles = 0;  ///< sum over pool stages
  fpga::ResourceUsage fixed_overhead;  ///< pool + top-level, fixed-variant
  int weight_bits = 0;
  int act_bits = 0;
};

/// Saturating product of per-layer candidate counts (double: CNV-scale
/// lattices overflow int64).
double space_size(const SearchSpace& space);

/// The pruning-granularity coupling between adjacent MVTU layers: true when
/// removing filters from a layer with \p ch_out outputs, folded at \p pe and
/// feeding a consumer folded at \p simd_next, still allows keep-count steps
/// no coarser than \p max_granularity * ch_out. max_granularity <= 0 accepts
/// everything.
bool prune_compatible(std::int64_t ch_out, std::int64_t pe, std::int64_t simd_next,
                      double max_granularity);

/// Builds the lattice for \p geometry (a graph::lower_geometry or
/// hls::compile_model result). Candidate costs are normalized against
/// \p budget; \p variant selects whether cycle counts carry the Flexible
/// guard/setup overhead. Candidate evaluation fans out over common/parallel.
SearchSpace build_search_space(const hls::CompiledModel& geometry, int weight_bits, int act_bits,
                               hls::AcceleratorVariant variant,
                               const fpga::ResourceUsage& budget,
                               const SearchConstraints& constraints,
                               const fpga::ResourceModelConstants& resource_constants,
                               const perf::PerfModelConstants& perf_constants);

}  // namespace adaflow::dse

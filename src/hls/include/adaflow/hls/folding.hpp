#pragma once

/// \file folding.hpp
/// Dataflow folding configuration — the "FINN configuration file" of the
/// paper. Each MVTU layer (conv or fully-connected) is folded by PE (output
/// parallelism; must divide the layer's output channels / neurons) and SIMD
/// (input parallelism; must divide the layer's input channels / features).
///
/// These divisibility rules are exactly the constraints the Dataflow-Aware
/// Pruning of Section IV-A1 has to respect:
///   (ch_out_i - r_i) mod PE_i      == 0
///   (ch_out_i - r_i) mod SIMD_i+1  == 0

#include <cstdint>
#include <string>
#include <vector>

#include "adaflow/hls/compiled_model.hpp"
#include "adaflow/nn/model.hpp"

namespace adaflow::hls {

/// Per-MVTU folding parameters.
struct LayerFolding {
  std::int64_t pe = 1;
  std::int64_t simd = 1;
};

/// One folding entry per MVTU layer, in graph order (convs then FCs).
struct FoldingConfig {
  std::vector<LayerFolding> layers;
};

/// Structural description of one MVTU layer extracted from a model.
struct MvtuLayerDesc {
  std::size_t model_index = 0;  ///< index of the Conv2d/Linear in the model
  bool is_conv = true;
  std::string name;
  std::int64_t ch_in = 0;    ///< input channels (conv) or features (fc)
  std::int64_t ch_out = 0;   ///< output channels (conv) or neurons (fc)
  std::int64_t kernel = 1;   ///< kernel size (1 for fc)
  std::int64_t in_dim = 0;   ///< input spatial dim (1 for fc)
  std::int64_t out_dim = 0;  ///< output spatial dim (1 for fc)
  int weight_bits = 0;
  int act_bits = 0;
};

/// Enumerates the MVTU layers (Conv2d + Linear) of \p model in graph order,
/// resolving spatial dimensions from the model's input shape.
std::vector<MvtuLayerDesc> enumerate_mvtu_layers(const nn::Model& model);

/// Validates PE | ch_out and SIMD | ch_in for every layer; throws
/// FoldingError with the offending layer's name otherwise.
void validate_folding(const nn::Model& model, const FoldingConfig& folding);

/// Derives a folding whose steady-state throughput is closest to
/// \p target_fps at \p clock_hz without exceeding per-layer parallelism that
/// the channel counts allow. Greedy: repeatedly steps the bottleneck layer's
/// PE or SIMD to the next-larger channel divisor (every divisor is visited,
/// not just powers of two — channel counts like 48 expose 3/6/12/24) until
/// the target is met or no divisor remains.
FoldingConfig folding_for_target_fps(const nn::Model& model, double target_fps, double clock_hz);

/// Geometry-based counterparts: graph-lowered topologies (detection heads,
/// branchy DAGs) carry no nn::Model, only an hls::CompiledModel stage list,
/// so the folding machinery accepts the geometry directly. model_index is
/// the stage index; weight_bits/act_bits are 0 (geometry carries no quant).
std::vector<MvtuLayerDesc> enumerate_mvtu_layers(const CompiledModel& geometry);
void validate_folding(const CompiledModel& geometry, const FoldingConfig& folding);
FoldingConfig folding_for_target_fps(const CompiledModel& geometry, double target_fps,
                                     double clock_hz);

/// Smallest divisor of \p value strictly greater than \p current, or 0 when
/// \p current is already the full value. The step primitive of the greedy
/// folding walk and the DSE neighborhood moves.
std::int64_t next_divisor_above(std::int64_t value, std::int64_t current);

/// All divisors of \p value in ascending order (the PE/SIMD lattice axis of
/// one layer in the design-space explorer).
std::vector<std::int64_t> divisors_of(std::int64_t value);

/// Steady-state cycles one MVTU layer needs per frame under a folding:
/// out_pixels * (ch_out / pe) * (kernel^2 * ch_in / simd).
/// This primitive is shared with the perf model (src/perf) so the folding
/// search and the reported throughput can never disagree.
std::int64_t mvtu_layer_cycles(const MvtuLayerDesc& layer, const LayerFolding& folding);

}  // namespace adaflow::hls

#pragma once

/// \file lower.hpp
/// Lowering adapters from the graph IR to the two artifact families the
/// pipeline consumes:
///
///  - lower_geometry: any valid DAG -> weights-free hls::CompiledModel stage
///    list (topological order). Sufficient for the analytical models (perf,
///    fpga resources, dse search) — the route detection topologies take.
///  - lower_model: linear chains only -> trainable nn::Model, the only way
///    a model is built. Layers are instantiated in topological order, so the
///    same (graph, seed) pair draws the same weights. The route the
///    training-based library generator takes.

#include "adaflow/graph/graph.hpp"
#include "adaflow/hls/compiled_model.hpp"
#include "adaflow/nn/model.hpp"

namespace adaflow::graph {

/// Lowers the stage geometry in topological order. kThreshold nodes fold
/// into the preceding MVTU (as in hls::compile_model); kConcat /
/// kUpsample / kGlobalPool become the matching streaming StageKinds.
/// CompiledModel::classes tracks the last MVTU's ch_out. Validates first.
hls::CompiledModel lower_geometry(const Graph& graph);

/// Lowers a linear chain (kInput / kConv / kThreshold / kPool / kFc only,
/// each node feeding exactly the next) to a sequential nn::Model; throws
/// ConfigError naming the offending node for branchy graphs. A kThreshold
/// node becomes BatchNorm + QuantAct, so conv and hidden fc layers come out
/// as the Conv -> BN -> Act blocks hls::compile_model folds.
nn::Model lower_model(const Graph& graph, std::uint64_t seed);

/// The graph's uniform quantization as an nn::QuantSpec (what perf /
/// resource / dse calls take alongside the lowered geometry).
nn::QuantSpec quant_spec(const Graph& graph);

}  // namespace adaflow::graph

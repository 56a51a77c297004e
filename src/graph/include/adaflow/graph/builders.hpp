#pragma once

/// \file builders.hpp
/// Graph-IR builders for the declarative nn topologies (nn::CnvTopology,
/// nn::MlpTopology). Node order is part of the contract: lower_model draws
/// the weights in node order, and the library cache is keyed on the graph's
/// topology hash. Node names become the layer and stage names.

#include "adaflow/graph/graph.hpp"
#include "adaflow/nn/cnv.hpp"
#include "adaflow/nn/mlp.hpp"

namespace adaflow::graph {

/// CNV chain: per conv block conv -> threshold (-> pool), per hidden fc
/// fc -> threshold, bare fc classifier.
Graph from_cnv(const nn::CnvTopology& topology);

/// TFC/SFC chain: per hidden layer fc -> threshold, bare fc classifier.
Graph from_mlp(const nn::MlpTopology& topology);

}  // namespace adaflow::graph

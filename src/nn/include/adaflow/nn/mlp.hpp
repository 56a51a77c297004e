#pragma once

/// \file mlp.hpp
/// Fully-connected topologies in the FINN family: TFC-style quantized MLPs
/// (Linear -> BatchNorm -> QuantAct per hidden layer, bare Linear
/// classifier; graph::from_mlp + graph::lower_model build them). These
/// exercise the pure-FC dataflow path (no SWU, no pool) and, combined with
/// PruneOptions::prune_fc_neurons, the neuron-pruning branch of the
/// dataflow-aware pruner.

#include <string>
#include <vector>

#include "adaflow/nn/model.hpp"

namespace adaflow::nn {

struct MlpTopology {
  std::string name;
  Shape input{1, 28, 28};
  std::vector<std::int64_t> hidden;  ///< neurons per hidden layer
  std::int64_t classes = 10;
  QuantSpec quant;
};

/// FINN's TFC with 1-bit weights / 2-bit activations, width-scaled
/// (original hidden widths are 64-64-64; scale_div shrinks them, floor 16).
MlpTopology tfc_w1a2(std::int64_t classes, std::int64_t scale_div = 1);

}  // namespace adaflow::nn

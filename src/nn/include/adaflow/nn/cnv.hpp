#pragma once

/// \file cnv.hpp
/// Topologies of the paper's CNN models: CNV-W2A2 and CNV-W1A2 (the FINN CNV
/// topology — six 3x3 VALID convolutions with pooling after the 2nd and 4th,
/// followed by a fully-connected head). graph::from_cnv turns one into the
/// graph IR, and graph::lower_model instantiates the trainable nn::Model.
///
/// The channel widths are divided by a scale factor (default 8) so that the
/// full 18-model pruning library retrains in CPU-minutes; see DESIGN.md
/// ("Substitutions"). scale_div = 1 reproduces the original widths.

#include <string>
#include <vector>

#include "adaflow/nn/model.hpp"

namespace adaflow::nn {

/// Declarative description of a CNV-style network.
struct CnvTopology {
  std::string name;
  Shape input{3, 32, 32};
  std::vector<std::int64_t> conv_channels;  ///< output channels per conv layer
  std::vector<bool> pool_after;             ///< 2x2 max-pool after this conv?
  std::vector<std::int64_t> fc_features;    ///< hidden FC widths
  std::int64_t classes = 10;
  QuantSpec quant;
};

/// CNV with 2-bit weights / 2-bit activations (paper's CNVW2A2).
CnvTopology cnv_w2a2(std::int64_t classes, std::int64_t scale_div = 8);

/// CNV with 1-bit weights / 2-bit activations (paper's CNVW1A2).
CnvTopology cnv_w1a2(std::int64_t classes, std::int64_t scale_div = 8);

}  // namespace adaflow::nn

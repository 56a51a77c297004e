#pragma once

/// Shared test fixtures: small trained models and datasets, built once per
/// test binary (training even a tiny CNV takes seconds on one core).

#include "adaflow/datasets/synthetic.hpp"
#include "adaflow/hls/folding.hpp"
#include "adaflow/nn/cnv.hpp"

namespace adaflow::testing {

/// A small dataset (fast to generate, hard enough to be non-trivial).
const datasets::SyntheticDataset& tiny_cifar();

/// A CNV-W2A2 at 1/16 width, trained for a few epochs on tiny_cifar().
const nn::Model& trained_cnv_w2a2();

/// The topology used by trained_cnv_w2a2().
const nn::CnvTopology& tiny_topology();

/// An untrained tiny_topology() model, lowered through the graph IR.
nn::Model tiny_model(std::uint64_t seed);

/// A folding valid for trained_cnv_w2a2() targeting ~450 FPS at 100 MHz.
const hls::FoldingConfig& tiny_folding();

}  // namespace adaflow::testing

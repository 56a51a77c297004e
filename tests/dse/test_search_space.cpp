#include "adaflow/dse/search_space.hpp"

#include <gtest/gtest.h>

#include "adaflow/fpga/device.hpp"
#include "adaflow/graph/builders.hpp"
#include "adaflow/graph/lower.hpp"
#include "adaflow/nn/cnv.hpp"

namespace adaflow::dse {
namespace {

hls::CompiledModel cnv() { return graph::lower_geometry(graph::from_cnv(nn::cnv_w2a2(10))); }

SearchSpace build(const hls::CompiledModel& model, hls::AcceleratorVariant variant,
                  const SearchConstraints& constraints = {}) {
  return build_search_space(model, 2, 2, variant,
                            fpga::device_budget(fpga::zcu104(), 0.7), constraints,
                            fpga::default_resource_constants(), perf::default_perf_constants());
}

TEST(SearchSpace, LatticeCoversEveryDivisorPair) {
  const hls::CompiledModel model = cnv();
  const SearchSpace space = build(model, hls::AcceleratorVariant::kFixed);
  const std::vector<hls::MvtuLayerDesc> layers = hls::enumerate_mvtu_layers(model);
  ASSERT_EQ(space.layers.size(), layers.size());
  for (std::size_t i = 0; i < layers.size(); ++i) {
    const std::size_t expected = hls::divisors_of(layers[i].ch_out).size() *
                                 hls::divisors_of(layers[i].ch_in).size();
    EXPECT_EQ(space.layers[i].candidates.size(), expected) << "layer " << i;
    for (const FoldingCandidate& c : space.layers[i].candidates) {
      EXPECT_EQ(layers[i].ch_out % c.folding.pe, 0);
      EXPECT_EQ(layers[i].ch_in % c.folding.simd, 0);
      EXPECT_GT(c.cycles, 0);
      EXPECT_GT(c.resources.luts, 0.0);
    }
  }
  EXPECT_GT(space.pool_ii_cycles, 0);
  EXPECT_GE(space.pool_latency_cycles, space.pool_ii_cycles);
  EXPECT_GT(space.fixed_overhead.luts, 0.0);
  EXPECT_GT(space_size(space), 1e6);  // CNV's lattice is large
}

TEST(SearchSpace, CandidatesSortedByCostAndMinCyclesTracked) {
  const SearchSpace space = build(cnv(), hls::AcceleratorVariant::kFixed);
  for (const LayerSpace& layer : space.layers) {
    std::int64_t fastest = layer.candidates.front().cycles;
    for (std::size_t c = 1; c < layer.candidates.size(); ++c) {
      EXPECT_LE(layer.candidates[c - 1].cost, layer.candidates[c].cost);
      fastest = std::min(fastest, layer.candidates[c].cycles);
    }
    for (const FoldingCandidate& c : layer.candidates) {
      fastest = std::min(fastest, c.cycles);
    }
    EXPECT_EQ(layer.min_cycles, fastest);
  }
}

TEST(SearchSpace, CandidateCyclesMatchPerfModel) {
  const hls::CompiledModel model = cnv();
  const SearchSpace space = build(model, hls::AcceleratorVariant::kFixed);
  for (const LayerSpace& layer : space.layers) {
    for (const FoldingCandidate& c : layer.candidates) {
      EXPECT_EQ(c.cycles, perf::stage_cycles(layer.desc, &c.folding));
    }
  }
}

TEST(SearchSpace, FlexibleVariantCarriesOverheadCycles) {
  const hls::CompiledModel model = cnv();
  const SearchSpace fixed = build(model, hls::AcceleratorVariant::kFixed);
  const SearchSpace flex = build(model, hls::AcceleratorVariant::kFlexible);
  ASSERT_EQ(fixed.layers.size(), flex.layers.size());
  // Same folding -> strictly more cycles on the Flexible fabric.
  const hls::LayerFolding probe{1, 1};
  for (std::size_t i = 0; i < fixed.layers.size(); ++i) {
    auto cycles_of = [&](const LayerSpace& layer) -> std::int64_t {
      for (const FoldingCandidate& c : layer.candidates) {
        if (c.folding.pe == probe.pe && c.folding.simd == probe.simd) {
          return c.cycles;
        }
      }
      return -1;
    };
    EXPECT_GT(cycles_of(flex.layers[i]), cycles_of(fixed.layers[i]));
  }
  EXPECT_GT(flex.pool_ii_cycles, fixed.pool_ii_cycles);
}

TEST(SearchSpace, FoldingCapsRestrictTheLattice) {
  SearchConstraints constraints;
  constraints.max_pe = 4;
  constraints.max_simd = 2;
  const SearchSpace space = build(cnv(), hls::AcceleratorVariant::kFixed, constraints);
  for (const LayerSpace& layer : space.layers) {
    for (const FoldingCandidate& c : layer.candidates) {
      EXPECT_LE(c.folding.pe, 4);
      EXPECT_LE(c.folding.simd, 2);
    }
  }
}

TEST(SearchSpace, PruneCompatibleBoundsTheLcmStep) {
  // Pruning removes filters in steps of lcm(PE, SIMD_next); granularity is
  // that step relative to the layer width.
  EXPECT_TRUE(prune_compatible(64, 8, 4, 0.25));    // lcm 8 <= 16
  EXPECT_TRUE(prune_compatible(64, 16, 16, 0.25));  // lcm 16 == 16
  EXPECT_FALSE(prune_compatible(64, 64, 1, 0.25));  // lcm 64 > 16
  EXPECT_FALSE(prune_compatible(64, 16, 24, 0.25));  // lcm 48 > 16
  EXPECT_TRUE(prune_compatible(64, 64, 64, 0.0));   // 0 disables the rule
  EXPECT_TRUE(prune_compatible(64, 64, 64, -1.0));
}

TEST(SearchSpace, SpaceSizeIsTheCandidateProduct) {
  SearchSpace space;
  space.layers.resize(3);
  space.layers[0].candidates.resize(4);
  space.layers[1].candidates.resize(5);
  space.layers[2].candidates.resize(6);
  EXPECT_DOUBLE_EQ(space_size(space), 120.0);
  EXPECT_DOUBLE_EQ(space_size(SearchSpace{}), 1.0);
}

TEST(SearchSpace, RejectsUnquantizedPrecisions) {
  const hls::CompiledModel model = cnv();
  EXPECT_THROW(build_search_space(model, 0, 2,
                                  hls::AcceleratorVariant::kFixed,
                                  fpga::device_budget(fpga::zcu104(), 0.7), {},
                                  fpga::default_resource_constants(),
                                  perf::default_perf_constants()),
               ConfigError);
}

}  // namespace
}  // namespace adaflow::dse

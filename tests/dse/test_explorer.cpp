#include "adaflow/dse/explorer.hpp"

#include <gtest/gtest.h>

#include "adaflow/fpga/device.hpp"
#include "adaflow/graph/builders.hpp"
#include "adaflow/graph/lower.hpp"
#include "adaflow/nn/cnv.hpp"

namespace adaflow::dse {
namespace {

/// Tiny CNV (4/4 channels, no hidden FC): its whole folding lattice is a few
/// thousand points, so the explorer enumerates it exhaustively and tests can
/// reason about optimality.
graph::Graph tiny_cnv() {
  nn::CnvTopology t;
  t.name = "CNVTINY";
  t.input = {3, 32, 32};
  t.conv_channels = {4, 4};
  t.pool_after = {false, true};
  t.fc_features = {};
  t.classes = 10;
  t.quant = nn::QuantSpec{2, 2, 0.5f};
  return graph::from_cnv(t);
}

/// Full-size CNV: the lattice is ~1e10, forcing the beam + annealing path.
graph::Graph big_cnv() { return graph::from_cnv(nn::cnv_w2a2(10)); }

bool frontier_equal(const ExplorationResult& a, const ExplorationResult& b) {
  if (a.frontier.size() != b.frontier.size() || a.best_index != b.best_index) {
    return false;
  }
  for (std::size_t i = 0; i < a.frontier.size(); ++i) {
    const DesignPoint& p = a.frontier[i];
    const DesignPoint& q = b.frontier[i];
    if (p.fps != q.fps || p.ii_cycles != q.ii_cycles ||
        p.resources.luts != q.resources.luts ||
        p.resources.flip_flops != q.resources.flip_flops ||
        p.folding.layers.size() != q.folding.layers.size()) {
      return false;
    }
    for (std::size_t l = 0; l < p.folding.layers.size(); ++l) {
      if (p.folding.layers[l].pe != q.folding.layers[l].pe ||
          p.folding.layers[l].simd != q.folding.layers[l].simd) {
        return false;
      }
    }
  }
  return true;
}

TEST(Explorer, ObjectiveNamesRoundTrip) {
  for (const std::string& name : objective_names()) {
    EXPECT_EQ(objective_name(objective_by_name(name)), name);
  }
  EXPECT_THROW(objective_by_name("fastest"), ConfigError);
}

TEST(Explorer, ExhaustiveResultsMatchCanonicalModels) {
  const graph::Graph model = tiny_cnv();
  const fpga::FpgaDevice device = fpga::zcu104();
  ExplorerConfig config;
  config.objective = Objective::kMaxFps;
  const ExplorationResult result = explore(model, device, config);
  EXPECT_TRUE(result.exhaustive);
  ASSERT_FALSE(result.frontier.empty());
  EXPECT_TRUE(result.objective_met);
  EXPECT_GT(result.evaluated, 0);

  const hls::CompiledModel geometry = graph::lower_geometry(model);
  for (const DesignPoint& p : result.frontier) {
    // The explorer's fps/latency come from the same integer cycle counts as
    // perf::analyze, so they agree exactly.
    const perf::PerfReport report =
        perf::analyze(geometry, p.folding, hls::AcceleratorVariant::kFixed, device.clock_hz);
    EXPECT_EQ(p.fps, report.fps);
    EXPECT_EQ(p.latency_s, report.latency_s);
    EXPECT_EQ(p.ii_cycles, report.initiation_interval_cycles);
    // Resources sum the same stage costs (different accumulation order, so
    // bitwise equality is not guaranteed — relative equality is).
    const fpga::ResourceUsage canonical = fpga::accelerator_resources(
        geometry, p.folding, hls::AcceleratorVariant::kFixed, 2, 2,
        fpga::default_resource_constants());
    EXPECT_NEAR(p.resources.luts, canonical.luts, 1e-7 * canonical.luts);
    EXPECT_NEAR(p.resources.flip_flops, canonical.flip_flops, 1e-7 * canonical.flip_flops);
    EXPECT_DOUBLE_EQ(p.resources.bram18, canonical.bram18);
  }
}

TEST(Explorer, FrontierIsSortedAndNonDominated) {
  const ExplorationResult result = explore(tiny_cnv(), fpga::zcu104(), ExplorerConfig{});
  for (std::size_t i = 1; i < result.frontier.size(); ++i) {
    const DesignPoint& faster = result.frontier[i - 1];
    const DesignPoint& slower = result.frontier[i];
    EXPECT_GE(faster.fps, slower.fps);
    // Every later point must be cheaper somewhere, else it would be dominated.
    EXPECT_TRUE(slower.resources.luts < faster.resources.luts ||
                slower.resources.flip_flops < faster.resources.flip_flops ||
                slower.resources.bram18 < faster.resources.bram18 ||
                slower.resources.dsp < faster.resources.dsp);
  }
  for (const DesignPoint& p : result.frontier) {
    EXPECT_TRUE(fpga::fits_budget(p.resources, result.budget));
  }
}

TEST(Explorer, TighterBudgetNeverImprovesBestFps) {
  const graph::Graph model = tiny_cnv();
  ExplorerConfig loose;
  loose.budget_fraction = 0.7;
  ExplorerConfig tight;
  tight.budget_fraction = 0.05;
  const double loose_fps = explore(model, fpga::zcu104(), loose).best().fps;
  const double tight_fps = explore(model, fpga::zcu104(), tight).best().fps;
  EXPECT_LE(tight_fps, loose_fps);
  EXPECT_GT(tight_fps, 0.0);
}

TEST(Explorer, MinResourcesMeetsTargetWithFewerResources) {
  const graph::Graph model = tiny_cnv();
  const fpga::FpgaDevice device = fpga::zcu104();
  ExplorerConfig maxfps;
  maxfps.objective = Objective::kMaxFps;
  const DesignPoint fastest = explore(model, device, maxfps).best();

  ExplorerConfig minres;
  minres.objective = Objective::kMinResources;
  minres.target_fps = 300.0;
  const ExplorationResult lean = explore(model, device, minres);
  EXPECT_TRUE(lean.objective_met);
  EXPECT_GE(lean.best().fps, 300.0);
  EXPECT_LE(lean.best().resources.luts, fastest.resources.luts);
}

TEST(Explorer, UnreachableTargetFlagsObjectiveNotMet) {
  ExplorerConfig config;
  config.objective = Objective::kMinResources;
  config.target_fps = 1e12;
  const ExplorationResult result = explore(tiny_cnv(), fpga::zcu104(), config);
  EXPECT_FALSE(result.objective_met);
  ASSERT_FALSE(result.frontier.empty());
  // Fallback: the fastest design, so callers still get the best effort.
  EXPECT_EQ(result.best_index, 0u);
}

TEST(Explorer, BalancedPicksAFeasibleKnee) {
  ExplorerConfig config;
  config.objective = Objective::kBalanced;
  const ExplorationResult result = explore(tiny_cnv(), fpga::zcu104(), config);
  EXPECT_TRUE(result.objective_met);
  // The knee maximizes fps per unit of scarcest-resource pressure; verify it
  // actually wins that score within the frontier.
  const fpga::FpgaDevice device = fpga::zcu104();
  double best_score = 0.0;
  for (const DesignPoint& p : result.frontier) {
    const double score =
        p.fps / fpga::max_utilization(fpga::utilization(p.resources, device));
    best_score = std::max(best_score, score);
  }
  const DesignPoint& knee = result.best();
  EXPECT_DOUBLE_EQ(
      knee.fps / fpga::max_utilization(fpga::utilization(knee.resources, device)), best_score);
}

TEST(Explorer, BeamPathIsDeterministicUnderTheSeed) {
  const graph::Graph model = big_cnv();
  ExplorerConfig config;
  config.seed = 1234;
  config.anneal_iters = 500;
  const ExplorationResult a = explore(model, fpga::zcu104(), config);
  const ExplorationResult b = explore(model, fpga::zcu104(), config);
  EXPECT_FALSE(a.exhaustive);
  EXPECT_TRUE(frontier_equal(a, b));
}

TEST(Explorer, ImpossibleBudgetYieldsEmptyFrontier) {
  ExplorerConfig config;
  config.budget = fpga::ResourceUsage{1.0, 1.0, 1.0, 0.0};
  const ExplorationResult result = explore(tiny_cnv(), fpga::zcu104(), config);
  EXPECT_TRUE(result.frontier.empty());
  EXPECT_FALSE(result.objective_met);
  EXPECT_THROW(result.best(), ConfigError);
}

TEST(Explorer, ValidatesItsConfiguration) {
  const graph::Graph model = tiny_cnv();
  ExplorerConfig bad_beam;
  bad_beam.beam_width = 0;
  EXPECT_THROW(explore(model, fpga::zcu104(), bad_beam), ConfigError);

  ExplorerConfig bad_anneal;
  bad_anneal.anneal_iters = -1;
  EXPECT_THROW(explore(model, fpga::zcu104(), bad_anneal), ConfigError);

  ExplorerConfig no_target;
  no_target.objective = Objective::kMinResources;
  EXPECT_THROW(explore(model, fpga::zcu104(), no_target), ConfigError);
}

TEST(Explorer, PruneGranularityConstraintHoldsOnEveryFrontierPoint) {
  const graph::Graph model = big_cnv();
  ExplorerConfig config;
  config.constraints.max_prune_granularity = 0.25;
  const ExplorationResult result = explore(model, fpga::zcu104(), config);
  ASSERT_FALSE(result.frontier.empty());
  const std::vector<hls::MvtuLayerDesc> layers =
      hls::enumerate_mvtu_layers(graph::lower_geometry(model));
  for (const DesignPoint& p : result.frontier) {
    for (std::size_t i = 1; i < layers.size(); ++i) {
      if (!layers[i - 1].is_conv) {
        continue;  // only conv producers are prunable
      }
      EXPECT_TRUE(prune_compatible(layers[i - 1].ch_out, p.folding.layers[i - 1].pe,
                                   p.folding.layers[i].simd, 0.25));
    }
  }
}

TEST(Explorer, LayerBreakdownMarksTheBottleneck) {
  const graph::Graph model = tiny_cnv();
  const fpga::FpgaDevice device = fpga::zcu104();
  ExplorerConfig config;
  const ExplorationResult result = explore(model, device, config);
  const hls::CompiledModel geometry = graph::lower_geometry(model);
  const SearchSpace space = build_search_space(
      geometry, 2, 2, config.variant, result.budget, config.constraints,
      config.resource_constants, perf::default_perf_constants());
  const std::vector<LayerReport> rows = layer_breakdown(space, result.best());
  ASSERT_EQ(rows.size(), space.layers.size());
  for (const LayerReport& r : rows) {
    EXPECT_GT(r.cycles, 0);
    EXPECT_LE(r.cycles, result.best().ii_cycles);
    EXPECT_EQ(r.is_bottleneck, r.cycles == result.best().ii_cycles);
  }
}

TEST(Explorer, FlexibleVariantIsSlowerThanFixed) {
  const graph::Graph model = tiny_cnv();
  ExplorerConfig fixed;
  ExplorerConfig flex;
  flex.variant = hls::AcceleratorVariant::kFlexible;
  const DesignPoint pf = explore(model, fpga::zcu104(), fixed).best();
  const DesignPoint pl = explore(model, fpga::zcu104(), flex).best();
  EXPECT_LT(pl.fps, pf.fps);
}

}  // namespace
}  // namespace adaflow::dse

/// `bench_adaflow dse`: the folding auto-tuner (src/dse) against the default heuristic
/// folding, at equal cost — the acceptance experiment of the DSE subsystem.
///
/// For each CNV variant (W2A2, W1A2) the default design is whatever
/// folding_for_target_fps picks for the paper's 450-FPS operating point.
/// Two tuned contenders then run against it:
///
///   Part A (max-fps @ equal LUT budget): the explorer gets exactly the
///   default design's resources as its budget and must return a strictly
///   faster folding. Same silicon, more throughput.
///
///   Part B (min-resources @ equal target FPS): the explorer must sustain the
///   default design's throughput and is asked to minimize resources; the
///   tuned folding must spend strictly fewer LUTs. Same throughput, less
///   silicon.
///
///   Part C (determinism): the same search runs twice with the same seed and
///   the Pareto frontiers must be bit-identical — fps, resources and every
///   per-layer (PE, SIMD) pair.
///
/// Everything runs on geometry only (untrained models): the perf and
/// resource models read layer shapes, so no training or library cache is
/// needed. Each contender's FPS, LUTs and BRAM18 go to BENCH_dse.json.

#include <cstdio>
#include <string>
#include <vector>

#include "adaflow/common/strings.hpp"
#include "adaflow/common/table.hpp"
#include "adaflow/dse/explorer.hpp"
#include "adaflow/fpga/device.hpp"
#include "adaflow/graph/builders.hpp"
#include "adaflow/graph/lower.hpp"
#include "adaflow/hls/accelerator.hpp"
#include "adaflow/nn/cnv.hpp"
#include "common.hpp"

namespace adaflow::bench {
namespace {

struct DefaultDesign {
  hls::FoldingConfig folding;
  double fps = 0.0;
  fpga::ResourceUsage resources;
};

/// The heuristic baseline: folding_for_target_fps at the paper's operating
/// point, evaluated through the same canonical perf/resource models.
DefaultDesign default_design(const hls::CompiledModel& geometry, int weight_bits, int act_bits,
                             const fpga::FpgaDevice& device) {
  DefaultDesign d;
  d.folding = hls::folding_for_target_fps(geometry, 450.0, device.clock_hz);
  d.fps = perf::analyze(geometry, d.folding, hls::AcceleratorVariant::kFixed, device.clock_hz).fps;
  d.resources = fpga::accelerator_resources(geometry, d.folding, hls::AcceleratorVariant::kFixed,
                                            weight_bits, act_bits,
                                            fpga::default_resource_constants());
  return d;
}

bool same_frontier(const dse::ExplorationResult& a, const dse::ExplorationResult& b) {
  if (a.frontier.size() != b.frontier.size() || a.best_index != b.best_index) {
    return false;
  }
  for (std::size_t i = 0; i < a.frontier.size(); ++i) {
    const dse::DesignPoint& p = a.frontier[i];
    const dse::DesignPoint& q = b.frontier[i];
    if (p.fps != q.fps || p.ii_cycles != q.ii_cycles ||
        p.resources.luts != q.resources.luts ||
        p.resources.flip_flops != q.resources.flip_flops ||
        p.resources.bram18 != q.resources.bram18 || p.resources.dsp != q.resources.dsp ||
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

}  // namespace

void dse_bench(Report& report) {
  auto& [check, json] = report;
  bench::print_banner("Folding auto-tuner",
                      "DSE-tuned folding vs the default heuristic at equal cost");

  const fpga::FpgaDevice device = fpga::zcu104();

  TextTable table({"model", "contender", "FPS", "LUT", "BRAM18", "II[cyc]", "evaluated"});
  for (const nn::CnvTopology& topology : {nn::cnv_w2a2(10), nn::cnv_w1a2(10)}) {
    const graph::Graph model = graph::from_cnv(topology);
    const hls::CompiledModel geometry = graph::lower_geometry(model);
    const int wb = model.quant().weight_bits;
    const int ab = model.quant().act_bits;
    const DefaultDesign base = default_design(geometry, wb, ab, device);
    const auto emit = [&](const char* contender, double fps, const fpga::ResourceUsage& r) {
      const std::string scenario = topology.name + "_" + contender;
      json.set(scenario, "fps", fps, Better::kHigher);
      json.set(scenario, "luts", r.luts, Better::kLower);
      json.set(scenario, "bram18", r.bram18, Better::kLower);
    };
    emit("default", base.fps, base.resources);
    table.add_row({topology.name, "default heuristic", format_double(base.fps, 1),
                   format_double(base.resources.luts, 0),
                   format_double(base.resources.bram18, 0), "-", "-"});

    dse::ExplorerConfig common;
    common.anneal_iters = 2000;
    common.seed = 7;

    // --- Part A: max fps inside exactly the default design's area ---------
    dse::ExplorerConfig maxfps = common;
    maxfps.objective = dse::Objective::kMaxFps;
    maxfps.budget = base.resources;
    // Guard the budget against summation-order rounding: the cap is the
    // default design itself, which must stay feasible.
    maxfps.budget->luts *= 1.0 + 1e-9;
    maxfps.budget->flip_flops *= 1.0 + 1e-9;
    const dse::ExplorationResult fast = dse::explore_geometry(geometry, wb, ab, device, maxfps);
    emit("max_fps", fast.best().fps, fast.best().resources);
    table.add_row({topology.name, "tuned max-fps (equal LUT)", format_double(fast.best().fps, 1),
                   format_double(fast.best().resources.luts, 0),
                   format_double(fast.best().resources.bram18, 0),
                   std::to_string(fast.best().ii_cycles), std::to_string(fast.evaluated)});
    check(fast.best().fps > base.fps,
          (topology.name + ": tuned fps beats the heuristic at equal budget").c_str());

    // --- Part B: fewest resources sustaining the default design's fps -----
    dse::ExplorerConfig minres = common;
    minres.objective = dse::Objective::kMinResources;
    minres.target_fps = base.fps;
    minres.budget_fraction = 1.0;
    const dse::ExplorationResult lean = dse::explore_geometry(geometry, wb, ab, device, minres);
    emit("min_res", lean.best().fps, lean.best().resources);
    table.add_row({topology.name, "tuned min-res (equal FPS)", format_double(lean.best().fps, 1),
                   format_double(lean.best().resources.luts, 0),
                   format_double(lean.best().resources.bram18, 0),
                   std::to_string(lean.best().ii_cycles), std::to_string(lean.evaluated)});
    check(lean.objective_met && lean.best().fps + 1e-9 >= base.fps,
          (topology.name + ": min-res tuning still meets the heuristic fps").c_str());
    check(lean.best().resources.luts < base.resources.luts,
          (topology.name + ": min-res tuning spends fewer LUTs").c_str());

    // --- Part C: bit-identical frontier under the same seed ---------------
    const dse::ExplorationResult replay = dse::explore_geometry(geometry, wb, ab, device, maxfps);
    check(same_frontier(fast, replay),
          (topology.name + ": same seed reproduces the frontier bit-identically").c_str());
  }
  std::printf("\ntuned vs default folding on %s (450-FPS heuristic operating point):\n%s\n",
              device.name.c_str(), table.render().c_str());
}

}  // namespace adaflow::bench

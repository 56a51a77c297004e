/// Folding auto-tuner: pick the PE/SIMD folding with the design-space
/// explorer instead of the heuristic.
///
/// Three searches over the CNV-W2A2 folding lattice on a ZCU104:
///   1. max-fps      — the fastest accelerator fitting 70% of the device;
///   2. min-resources — the cheapest one still sustaining the paper's
///      450-FPS operating point;
///   3. balanced     — the knee: throughput per unit of the scarcest
///      resource.
/// Each search prints its pick; the max-fps one also shows the Pareto
/// frontier it was chosen from and the per-layer folding with the pipeline
/// bottleneck marked. Everything runs on geometry only — no training.

#include <cstdio>

#include "adaflow/common/logging.hpp"
#include "adaflow/common/strings.hpp"
#include "adaflow/common/table.hpp"
#include "adaflow/dse/explorer.hpp"
#include "adaflow/fpga/device.hpp"
#include "adaflow/graph/builders.hpp"
#include "adaflow/graph/lower.hpp"
#include "adaflow/hls/accelerator.hpp"
#include "adaflow/nn/cnv.hpp"

int main() {
  using namespace adaflow;
  set_log_level(LogLevel::kWarn);

  const fpga::FpgaDevice device = fpga::zcu104();
  const graph::Graph model = graph::from_cnv(nn::cnv_w2a2(10));
  const hls::CompiledModel geometry = graph::lower_geometry(model);
  const int wb = model.quant().weight_bits;
  const int ab = model.quant().act_bits;

  std::printf("tuning %s on %s (%.3g candidate foldings)\n\n", model.name().c_str(),
              device.name.c_str(),
              dse::space_size(dse::build_search_space(
                  geometry, wb, ab, hls::AcceleratorVariant::kFixed,
                  fpga::device_budget(device, 0.7), {}, fpga::default_resource_constants(),
                  perf::default_perf_constants())));

  TextTable picks({"objective", "FPS", "latency[ms]", "LUT", "BRAM18", "met"});
  dse::ExplorationResult maxfps;
  for (dse::Objective objective : {dse::Objective::kMaxFps, dse::Objective::kMinResources,
                                   dse::Objective::kBalanced}) {
    dse::ExplorerConfig ec;
    ec.objective = objective;
    ec.budget_fraction = 0.7;
    if (objective == dse::Objective::kMinResources) {
      ec.target_fps = 450.0;  // the paper's CNV operating point
    }
    const dse::ExplorationResult r = dse::explore_geometry(geometry, wb, ab, device, ec);
    const dse::DesignPoint& best = r.best();
    picks.add_row({dse::objective_name(objective), format_double(best.fps, 1),
                   format_double(best.latency_s * 1e3, 3), format_double(best.resources.luts, 0),
                   format_double(best.resources.bram18, 0), r.objective_met ? "yes" : "no"});
    if (objective == dse::Objective::kMaxFps) {
      maxfps = r;
    }
  }
  std::printf("one lattice, three objectives:\n%s\n", picks.render().c_str());

  TextTable frontier({"", "FPS", "II[cyc]", "LUT", "BRAM18"});
  for (std::size_t i = 0; i < maxfps.frontier.size(); ++i) {
    const dse::DesignPoint& p = maxfps.frontier[i];
    frontier.add_row({i == maxfps.best_index ? "best ->" : "", format_double(p.fps, 1),
                      std::to_string(p.ii_cycles), format_double(p.resources.luts, 0),
                      format_double(p.resources.bram18, 0)});
  }
  std::printf("max-fps Pareto frontier (throughput vs resources):\n%s\n",
              frontier.render().c_str());

  const dse::SearchSpace space = dse::build_search_space(
      geometry, wb, ab, hls::AcceleratorVariant::kFixed, maxfps.budget, {},
      fpga::default_resource_constants(), perf::default_perf_constants());
  TextTable breakdown({"layer", "PE", "SIMD", "cycles", "LUT", "bottleneck"});
  for (const dse::LayerReport& r : dse::layer_breakdown(space, maxfps.best())) {
    breakdown.add_row({r.name, std::to_string(r.pe), std::to_string(r.simd),
                       std::to_string(r.cycles), format_double(r.luts, 0),
                       r.is_bottleneck ? "<--" : ""});
  }
  std::printf("max-fps pick, per layer (the bottleneck is what more PEs would fix):\n%s",
              breakdown.render().c_str());
  return 0;
}

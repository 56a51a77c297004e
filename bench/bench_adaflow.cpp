/// bench_adaflow: the one bench program. Its table holds the paper's tables
/// and figures plus the ablations (in this file), then the nine simulation
/// families (one file each). Every entry prints its tables and records its
/// claims as named predicates in a bench::Report named after it. With no
/// argument every entry runs in table order; `bench_adaflow fig1b fleet`
/// runs only those. Each entry that recorded metrics and passed all of its
/// checks writes BENCH_<name>.json under ADAFLOW_REPORT_DIR. After the
/// selected entries ran, the process exits 1 if any predicate failed, 2 on
/// an unknown name.
///
/// ADAFLOW_RUNS sets the repetitions per scenario (default 30; the paper
/// uses 100), read once before any entry runs.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "adaflow/common/math.hpp"
#include "adaflow/common/strings.hpp"
#include "adaflow/common/table.hpp"
#include "adaflow/core/oracle_policy.hpp"
#include "adaflow/faults/fault_injector.hpp"
#include "adaflow/fpga/device.hpp"
#include "adaflow/graph/builders.hpp"
#include "adaflow/graph/lower.hpp"
#include "adaflow/pruning/prune.hpp"
#include "adaflow/sim/fields.hpp"
#include "common.hpp"

namespace {

using namespace adaflow;
using bench::Checks;
using bench::Combo;
using bench::Report;

int runs = 0;  // ADAFLOW_RUNS, read by main before any entry
const edge::ServerConfig kServer;

/// Per-run mean of the runs of \p policy (a factory of one policy).
template <typename Policy>
edge::RunMetrics run_mean(const edge::WorkloadConfig& wl, Policy&& policy) {
  return edge::run_repeated(wl, std::forward<Policy>(policy), kServer, runs).mean;
}

edge::RunMetrics run_adaflow(const core::AcceleratorLibrary& lib, const edge::WorkloadConfig& wl,
                             const core::RuntimeManagerConfig& rmc = {}) {
  return run_mean(wl, [&] { return std::make_unique<core::RuntimeManager>(lib, rmc); });
}

edge::RunMetrics run_finn(const core::AcceleratorLibrary& lib, const edge::WorkloadConfig& wl) {
  return run_mean(wl, [&] { return std::make_unique<core::StaticFinnPolicy>(lib); });
}

std::string percent(double v) { return format_percent(v, 2); }
std::string ratio(double v) { return format_ratio(v, 3); }
std::string watts(double v) { return format_double(v, 3) + " W"; }

/// The table cells of one policy's run, efficiency relative to \p finn.
struct Cells {
  std::string loss, qoe, power, switches, reconfigs, eff;
};
Cells cells(const edge::RunMetrics& m, const edge::RunMetrics& finn) {
  return {percent(m.frame_loss()), percent(m.qoe()), format_double(m.average_power_w(), 3),
          format_double(static_cast<double>(m.model_switches), 1),
          format_double(static_cast<double>(m.reconfigurations), 1),
          format_ratio(m.power_efficiency() / finn.power_efficiency())};
}

/// \p values through \p format, space-separated: the measured side of a
/// trend predicate.
std::string list(const std::vector<double>& values, std::string (*format)(double)) {
  std::string out;
  for (double v : values) {
    out += out.empty() ? "" : " ";
    out += format(v);
  }
  return out;
}

/// Figure 1(a): accuracy and throughput (FPS) versus pruning rate for
/// CNVW2A2 on CIFAR-10 over FINN. Expected shape: FPS grows monotonically
/// (roughly quadratically) with the pruning rate while accuracy declines,
/// slowly at first and sharply at aggressive rates.
void fig1a(Report& r) {
  bench::print_banner("Figure 1(a)",
                      "Accuracy and FPS vs pruning rate, CNVW2A2 on SynthCIFAR-10");
  const core::AcceleratorLibrary lib = bench::combo_library(Combo::kCifarW2A2);

  TextTable table({"pruning_rate", "achieved_rate", "accuracy", "fps", "fps_vs_base"});
  const double base_fps = lib.versions.front().fps_fixed;
  double prev_fps = -std::numeric_limits<double>::infinity();
  double min_step = -prev_fps;
  for (const core::ModelVersion& v : lib.versions) {
    table.add_row({format_percent(v.requested_rate, 0), format_percent(v.achieved_rate, 1),
                   percent(v.accuracy), format_double(v.fps_fixed, 1),
                   format_ratio(v.fps_fixed / base_fps)});
    min_step = std::min(min_step, v.fps_fixed - prev_fps);
    prev_fps = v.fps_fixed;
  }
  std::printf("%s\n", table.render().c_str());
  r.check(min_step >= 0.0, "FPS is non-decreasing in the pruning rate",
          "smallest step " + format_double(min_step, 1) + " FPS", ">= 0");
}

/// Figure 1(b): Edge-server workload and frame loss over time for the
/// "No Pruning" baseline (static FINN) and "Pruning Reconf." servers that
/// switch pruned models via FPGA reconfigurations of 0 / 145 / 290 / 362 ms.
/// Expected shape: slow reconfigurations (290/362 ms) lose MORE frames than
/// never switching; the ideal 0 ms switch approaches zero loss.
void fig1b(Report& r) {
  bench::print_banner("Figure 1(b)",
                      "Workload & frame loss vs reconfiguration time (CNVW2A2/SynthCIFAR-10)");
  const core::AcceleratorLibrary lib = bench::combo_library(Combo::kCifarW2A2);
  const edge::WorkloadConfig workload = edge::scenario2();  // unpredictable load

  std::vector<std::pair<std::string, edge::RunMetrics>> all{
      {"No-Pruning(FINN)", run_finn(lib, workload)}};
  for (double reconf_ms : {0.0, 145.0, 290.0, 362.0}) {
    all.emplace_back("Pruning-Reconf@" + format_double(reconf_ms, 0) + "ms",
                     run_mean(workload, [&] {
                       return std::make_unique<core::ReconfPruningPolicy>(
                           lib, core::RuntimeManagerConfig{}, reconf_ms / 1000.0);
                     }));
  }

  TextTable totals({"server", "frame_loss", "switches/run", "processed/run"});
  for (const auto& [name, m] : all) {
    const Cells c = cells(m, m);
    totals.add_row({name, c.loss, c.switches, format_double(static_cast<double>(m.processed), 0)});
  }
  std::printf("%s\n", totals.render().c_str());

  const sim::TimeSeries& workload_fps = all.front().second.workload_series;
  std::printf("%s\n", bench::render_series(workload_fps, "workload [FPS]").c_str());
  std::vector<std::pair<std::string, sim::TimeSeries>> exported{{"workload_fps", workload_fps}};
  for (const auto& [name, m] : all) {
    std::printf("%s\n",
                bench::render_series(m.loss_series, "frame loss % — " + name, 100.0).c_str());
    exported.emplace_back(name, m.loss_series);
  }
  bench::export_figure("fig1b", "Fig 1(b) workload & frame loss", "frames / loss fraction",
                       exported);

  auto loss = [&](std::size_t i) { return all[i].second.frame_loss(); };
  const std::string finn = percent(loss(0)) + " FINN";
  r.check(loss(1) < loss(0), "0 ms switch loses fewer frames than FINN",
          percent(loss(1)), "< " + finn);
  for (std::size_t i : {3, 4}) {
    r.check(loss(i) > loss(0), all[i].first + " loses more frames than FINN",
            percent(loss(i)), "> " + finn);
  }
}

/// Figure 5(a): FPGA resource usage for the original FINN accelerator,
/// AdaFlow's Flexible-Pruning accelerator, and the Fixed-Pruning
/// accelerators of every pruned version (CNVW2A2 / CIFAR-10).
/// Expected shape: Flexible LUTs ~1.92x FINN with identical BRAM;
/// Fixed LUTs shrink from ~1.5% (5%) to ~46% (85%).
void fig5a(Report& r) {
  bench::print_banner("Figure 5(a)",
                      "FPGA resources: FINN vs Flexible vs Fixed-Pruning (CNVW2A2/SynthCIFAR-10)");
  const core::AcceleratorLibrary lib = bench::combo_library(Combo::kCifarW2A2);
  const fpga::FpgaDevice device = fpga::zcu104();

  auto row = [&](const std::string& name, const fpga::ResourceUsage& u) {
    const fpga::Utilization util = utilization(u, device);
    return std::vector<std::string>{
        name,
        format_double(u.luts, 0) + " (" + format_percent(util.luts, 1) + ")",
        format_double(u.flip_flops, 0) + " (" + format_percent(util.flip_flops, 1) + ")",
        format_double(u.bram18, 0) + " (" + format_percent(util.bram18, 1) + ")",
        format_double(u.dsp, 0)};
  };

  TextTable table({"accelerator", "LUT", "FF", "BRAM18", "DSP"});
  table.add_row(row("Original-FINN", lib.resources_finn));
  table.add_row(row("Flexible-Pruning", lib.resources_flexible));
  double prev_luts = std::numeric_limits<double>::infinity();
  double largest_growth = -prev_luts;
  for (const core::ModelVersion& v : lib.versions) {
    if (v.requested_rate == 0.0) {
      continue;
    }
    table.add_row(row("Fixed@" + format_percent(v.requested_rate, 0), v.resources_fixed));
    largest_growth = std::max(largest_growth, v.resources_fixed.luts - prev_luts);
    prev_luts = v.resources_fixed.luts;
  }
  std::printf("%s\n", table.render().c_str());

  const std::string flex_factor =
      format_ratio(lib.resources_flexible.luts / lib.resources_finn.luts);
  const double bram_delta = lib.resources_flexible.bram18 - lib.resources_finn.bram18;
  r.check(flex_factor == "1.92x", "Flexible LUT = 1.92x FINN", flex_factor, "1.92x");
  r.check(bram_delta == 0.0, "Flexible BRAM delta = 0", format_double(bram_delta, 0), "0");
  r.check(largest_growth < 0.0, "Fixed LUTs shrink with the rate",
          "largest step " + format_double(largest_growth, 0) + " LUT", "< 0");
}

/// Figure 5(b,c), one panel: accuracy versus energy-per-inference of the
/// Fixed- and Flexible-Pruning accelerators across all pruning rates.
void fig5_panel(Checks& check, const core::AcceleratorLibrary& lib, const char* figure) {
  std::printf("--- Figure 5(%s): %s / %s ---\n", figure, lib.model_name.c_str(),
              lib.dataset_name.c_str());

  // Energy per inference at full load: busy power / throughput.
  const core::ModelVersion& base = lib.unpruned();
  const double finn_energy = lib.finn_power_busy_w / base.fps_fixed;

  TextTable table({"rate", "accuracy", "E/inf fixed [mJ]", "E/inf flex [mJ]",
                   "fixed_vs_FINN", "flex_vs_FINN"});
  double worst = 0.0;
  for (const core::ModelVersion& v : lib.versions) {
    const double e_fixed = v.power_busy_fixed_w / v.fps_fixed;
    const double e_flex = v.power_busy_flexible_w / v.fps_flexible;
    table.add_row({format_percent(v.requested_rate, 0), percent(v.accuracy),
                   format_double(e_fixed * 1e3, 3), format_double(e_flex * 1e3, 3),
                   format_ratio(finn_energy / e_fixed), format_ratio(finn_energy / e_flex)});
    worst = std::max(worst, e_fixed / e_flex);
  }
  std::printf("%s\n", table.render().c_str());

  const core::ModelVersion& p25 = lib.at_rate(0.25);
  std::printf("highlight @25%% pruning: energy reduction %s (Flexible) / %s (Fixed) vs FINN, "
              "accuracy loss %s (paper: 1.38x / 1.64x at 9.9%%)\n\n",
              format_ratio(finn_energy / (p25.power_busy_flexible_w / p25.fps_flexible)).c_str(),
              format_ratio(finn_energy / (p25.power_busy_fixed_w / p25.fps_fixed)).c_str(),
              format_percent(lib.base_accuracy - p25.accuracy, 1).c_str());
  check(worst <= 1.0, lib.dataset_name + ": Fixed energy <= Flexible energy at every rate",
        "largest Fixed/Flexible " + format_double(worst, 4), "<= 1");
}

/// Figure 5(b,c): accuracy versus energy-per-inference for CNVW2A2 on
/// CIFAR-10 (b) and GTSRB (c), for both Fixed- and Flexible-Pruning
/// accelerators across all pruning rates.
/// Expected shape: energy decreases with pruning while accuracy declines;
/// Fixed points sit left of (cheaper than) their Flexible counterparts.
/// The paper's highlighted points: 25% pruning cuts energy 1.38x (Flexible)
/// / 1.64x (Fixed) versus FINN at ~10% accuracy loss.
void fig5bc(Report& r) {
  bench::print_banner("Figure 5(b,c)", "Accuracy vs energy per inference (CNVW2A2)");
  fig5_panel(r.check, bench::combo_library(Combo::kCifarW2A2), "b");
  fig5_panel(r.check, bench::combo_library(Combo::kGtsrbW2A2), "c");
}

/// Table I: frame loss, QoE, power, and power efficiency for AdaFlow vs the
/// original FINN, for all four dataset/CNN combinations under Scenarios 1
/// (stable) and 2 (unpredictable), averaged over repeated 25-second runs.
/// Expected shape: AdaFlow loses far fewer frames (paper: 0-22% vs 23-32%),
/// improves QoE, and is 1.0x-1.4x more power-efficient than FINN.
void table1(Report& r) {
  bench::print_banner("Table I", "Frame loss / QoE / power / power efficiency, " +
                                     std::to_string(runs) + " runs per cell (paper: 100)");

  TextTable table({"dataset/model", "scen", "loss_Ada", "loss_FINN", "QoE_Ada", "QoE_FINN",
                   "P_Ada[W]", "P_FINN[W]", "eff_wrt_FINN"});
  double eff_product = 1.0;
  double min_eff = std::numeric_limits<double>::infinity();
  int cells_losing_less = 0;
  int cell_count = 0;
  for (Combo combo : {Combo::kCifarW2A2, Combo::kGtsrbW2A2, Combo::kCifarW1A2, Combo::kGtsrbW1A2}) {
    const core::AcceleratorLibrary lib = bench::combo_library(combo);
    int scenario_id = 1;
    for (const edge::WorkloadConfig& wl : {edge::scenario1(), edge::scenario2()}) {
      const edge::RunMetrics ada = run_adaflow(lib, wl);
      const edge::RunMetrics finn = run_finn(lib, wl);
      const double eff = ada.power_efficiency() / finn.power_efficiency();
      eff_product *= eff;
      min_eff = std::min(min_eff, eff);
      ++cell_count;
      cells_losing_less += ada.frame_loss() < finn.frame_loss() ? 1 : 0;
      const Cells a = cells(ada, finn);
      const Cells f = cells(finn, finn);
      table.add_row({bench::combo_name(combo), std::to_string(scenario_id), a.loss, f.loss, a.qoe,
                     f.qoe, a.power, f.power, a.eff});
      ++scenario_id;
    }
  }
  std::printf("%s\n", table.render().c_str());

  const double geo_mean_eff = std::pow(eff_product, 1.0 / cell_count);
  const std::string all_cells = std::to_string(cell_count) + " cells";
  r.check(cells_losing_less == cell_count, "AdaFlow loses fewer frames than FINN in every cell",
          std::to_string(cells_losing_less), all_cells);
  r.check(min_eff > 1.0, "efficiency w.r.t. FINN > 1 in every cell",
          "lowest " + ratio(min_eff), "> 1");
  r.check(geo_mean_eff >= 1.01 && geo_mean_eff <= 1.40,
          "geometric-mean efficiency within the paper's 1.01x-1.40x",
          ratio(geo_mean_eff), "[1.01x, 1.40x]; paper average 1.27x");
}

/// Figure 6(a,b): frame-loss and QoE time series for CNVW2A2 on CIFAR-10
/// under Scenario 1 (stable), Scenario 2 (unpredictable) and the composite
/// Scenario 1+2 (stable for 15 s, then unpredictable), for AdaFlow and the
/// original FINN — plus AdaFlow's model-switch trace for Scenario 1+2
/// (the paper annotates the pruned rates used and the "Change of Dataflow"
/// reconfiguration that brings in the Flexible accelerator).
void fig6(Report& r) {
  bench::print_banner("Figure 6(a,b)",
                      "Frame loss & QoE over time, CNVW2A2/SynthCIFAR-10, 3 scenarios");
  const core::AcceleratorLibrary lib = bench::combo_library(Combo::kCifarW2A2);

  struct Entry {
    std::string name;
    std::string stem;
    edge::WorkloadConfig workload;
  };
  const std::vector<Entry> scenarios = {{"Scen.1", "fig6_s1", edge::scenario1()},
                                        {"Scen.2", "fig6_s2", edge::scenario2()},
                                        {"Scen.1+2", "fig6_s12", edge::scenario1_plus_2()}};

  TextTable totals({"scenario", "policy", "frame_loss", "QoE", "power[W]", "switches/run",
                    "reconfigs/run"});
  edge::RunMetrics composite_ada;
  for (const Entry& e : scenarios) {
    edge::RunMetrics ada = run_adaflow(lib, e.workload);
    const edge::RunMetrics finn = run_finn(lib, e.workload);
    const Cells a = cells(ada, finn);
    const Cells f = cells(finn, finn);
    totals.add_row({e.name, "AdaFlow", a.loss, a.qoe, a.power, a.switches, a.reconfigs});
    totals.add_row({e.name, "Orig.FINN", f.loss, f.qoe, f.power, "0", "0"});

    for (const auto& [series, label] :
         {std::pair{&edge::RunMetrics::loss_series, "Fig6a frame loss % — "},
          std::pair{&edge::RunMetrics::qoe_series, "Fig6b QoE % — "}}) {
      std::printf("%s\n",
                  bench::render_series(ada.*series, label + ("AdaFlow " + e.name), 100.0).c_str());
      std::printf("%s\n",
                  bench::render_series(finn.*series, label + ("FINN " + e.name), 100.0).c_str());
    }
    bench::export_figure(e.stem + "_loss", "Fig 6(a) frame loss — " + e.name, "frame loss",
                         {{"AdaFlow", ada.loss_series}, {"FINN", finn.loss_series}});
    bench::export_figure(e.stem + "_qoe", "Fig 6(b) QoE — " + e.name, "QoE",
                         {{"AdaFlow", ada.qoe_series}, {"FINN", finn.qoe_series}});
    composite_ada = std::move(ada);  // the last scenario, Scen.1+2, stays
  }
  std::printf("%s\n", totals.render().c_str());

  std::printf("Model-switch trace (first run, Scenario 1+2 — paper annotates these):\n");
  int changes_of_dataflow = 0;
  std::string prev_accel = "Fixed";
  for (const edge::SwitchRecord& s : composite_ada.switches) {
    const bool change_of_dataflow =
        edge::is_flexible(s.accelerator) && !edge::is_flexible(prev_accel);
    std::printf("  t=%6.2fs  -> %-14s on %-16s %s%s\n", s.time_s, s.model_version.c_str(),
                s.accelerator.c_str(),
                s.reconfiguration ? "[FPGA reconfiguration]" : "[fast switch]",
                change_of_dataflow ? "  <-- Change of Dataflow" : "");
    changes_of_dataflow += change_of_dataflow ? 1 : 0;
    prev_accel = s.accelerator;
  }
  r.check(changes_of_dataflow > 0, "Scenario 1+2 trace shows a Fixed->Flexible Change of Dataflow",
          std::to_string(changes_of_dataflow), ">= 1");
}

/// Ablation: sensitivity of the Runtime Manager's accelerator-type rule.
/// The paper selects Fixed-Pruning only when the time since the last model
/// switch exceeds N x the reconfiguration time and uses N = 10. This bench
/// sweeps N over the composite Scenario 1+2: small N reconfigures too
/// eagerly (loses frames); very large N never uses the power-efficient
/// Fixed accelerators (burns more power).
void ablation_switch_interval(Report& r) {
  bench::print_banner("Ablation: switch-interval factor",
                      "Fixed/Flexible rule threshold sweep, Scenario 1+2 (paper uses 10x)");
  const core::AcceleratorLibrary lib = bench::combo_library(Combo::kCifarW2A2);
  const edge::WorkloadConfig wl = edge::scenario1_plus_2();

  TextTable table({"factor", "frame_loss", "QoE", "power[W]", "switches/run", "reconfigs/run",
                   "eff_wrt_FINN"});
  const edge::RunMetrics finn = run_finn(lib, wl);
  std::vector<double> loss;
  std::vector<double> power;
  for (double factor : {1.0, 5.0, 10.0, 20.0, 1e9}) {
    core::RuntimeManagerConfig rmc;
    rmc.switch_interval_factor = factor;
    const edge::RunMetrics ada = run_adaflow(lib, wl, rmc);
    const Cells c = cells(ada, finn);
    table.add_row({factor > 1e6 ? "inf (always Flexible)" : format_double(factor, 0), c.loss,
                   c.qoe, c.power, c.switches, c.reconfigs, c.eff});
    loss.push_back(ada.frame_loss());
    power.push_back(ada.average_power_w());
  }
  std::printf("%s\n", table.render().c_str());
  const Cells f = cells(finn, finn);
  std::printf("FINN baseline: loss=%s QoE=%s power=%sW\n", f.loss.c_str(), f.qoe.c_str(),
              f.power.c_str());

  // Falls (rises) as the factor grows: never the other way between
  // neighbouring factors, and strictly from the first factor to the last.
  r.check(std::is_sorted(loss.rbegin(), loss.rend()) && loss.back() < loss.front(),
          "frame loss falls as the factor grows", list(loss, percent),
          "non-increasing, last < first");
  r.check(std::is_sorted(power.begin(), power.end()) && power.back() > power.front(),
          "power rises as the factor grows", list(power, watts),
          "non-decreasing, last > first");
}

/// Ablation: the user-configurable accuracy threshold. The paper evaluates
/// at 10% maximum accuracy loss and notes that looser thresholds would buy
/// more performance/efficiency (more aggressive pruning becomes eligible).
/// This bench sweeps 5% / 10% / 20% / 40% under Scenario 2.
void ablation_threshold(Report& r) {
  bench::print_banner("Ablation: accuracy threshold",
                      "Threshold sweep under Scenario 2 (paper evaluates 10%)");
  const core::AcceleratorLibrary lib = bench::combo_library(Combo::kCifarW2A2);
  const edge::WorkloadConfig wl = edge::scenario2();
  const edge::RunMetrics finn = run_finn(lib, wl);

  TextTable table({"threshold", "frame_loss", "QoE", "avg_accuracy_drop", "power[W]",
                   "eff_wrt_FINN"});
  std::vector<double> loss;
  std::vector<double> eff;
  for (double threshold : {0.05, 0.10, 0.20, 0.40}) {
    core::RuntimeManagerConfig rmc;
    rmc.accuracy_threshold = threshold;
    const edge::RunMetrics ada = run_adaflow(lib, wl, rmc);
    // Average accuracy of processed frames vs the unpruned model.
    const double avg_acc = ada.processed > 0 ? ada.qoe_accuracy_sum / ada.processed : 0.0;
    const Cells c = cells(ada, finn);
    table.add_row({format_percent(threshold, 0), c.loss, c.qoe,
                   percent(lib.base_accuracy - avg_acc), c.power, c.eff});
    loss.push_back(ada.frame_loss());
    eff.push_back(ada.power_efficiency() / finn.power_efficiency());
  }
  std::printf("%s\n", table.render().c_str());
  r.check(std::is_sorted(loss.rbegin(), loss.rend()),
          "looser thresholds do not increase frame loss", list(loss, percent), "non-increasing");
  r.check(std::is_sorted(eff.begin(), eff.end()), "looser thresholds do not decrease efficiency",
          list(eff, ratio), "non-decreasing");
}

/// Ablation: Dataflow-Aware Pruning vs naive (constraint-oblivious) filter
/// pruning. Naively keeping ceil((1-rate)*ch_out) filters violates the MVTU
/// feeding constraints for most rates — such a model cannot be loaded into
/// the synthesized dataflow at all. This bench counts, per rate, how many
/// conv layers a naive pruner would break, and shows the rate adjustment the
/// dataflow-aware pruner applies instead.
void ablation_naive_pruning(Report& r) {
  bench::print_banner("Ablation: naive vs dataflow-aware pruning",
                      "Folding-constraint violations of a constraint-oblivious pruner");

  // Build the standard CNVW2A2 and its bench folding (no training needed —
  // the constraints are structural).
  const nn::CnvTopology topology = bench::combo_topology(Combo::kCifarW2A2);
  nn::Model model = graph::lower_model(graph::from_cnv(topology), 7);
  const hls::FoldingConfig folding =
      hls::folding_for_target_fps(model, bench::standard_library_config().target_base_fps, 100e6);
  const std::vector<hls::MvtuLayerDesc> layers = hls::enumerate_mvtu_layers(model);

  TextTable table({"rate", "naive_violations", "naive_keep(conv2)", "aware_keep(conv2)",
                   "requested_rate", "aware_achieved"});
  int total_violating_rates = 0;
  int aware_violations = 0;
  for (int p = 5; p <= 85; p += 5) {
    const double rate = p / 100.0;
    int violations = 0;
    std::int64_t naive_keep_c2 = 0;
    std::int64_t aware_keep_c2 = 0;

    for (std::size_t m = 0; m < layers.size(); ++m) {
      if (!layers[m].is_conv) {
        continue;
      }
      const std::int64_t ch = layers[m].ch_out;
      const std::int64_t pe = folding.layers[m].pe;
      const std::int64_t simd_next = m + 1 < layers.size() ? folding.layers[m + 1].simd : 1;
      auto violates = [&](std::int64_t keep) {
        return !divisible(keep, pe) || !divisible(keep, simd_next);
      };
      const auto naive_keep =
          static_cast<std::int64_t>(std::ceil((1.0 - rate) * static_cast<double>(ch)));
      violations += violates(naive_keep) ? 1 : 0;
      const std::int64_t aware = pruning::adjust_keep_count(ch, naive_keep, pe, simd_next);
      aware_violations += violates(aware) ? 1 : 0;
      if (m == 1) {  // conv2, the paper's bottleneck layer
        naive_keep_c2 = naive_keep;
        aware_keep_c2 = aware;
      }
    }
    pruning::PruneResult pr = pruning::dataflow_aware_prune(model, folding, rate);
    table.add_row({format_percent(rate, 0), std::to_string(violations),
                   std::to_string(naive_keep_c2), std::to_string(aware_keep_c2),
                   format_percent(rate, 0), format_percent(pr.achieved_rate, 1)});
    total_violating_rates += violations > 0 ? 1 : 0;
  }
  std::printf("%s\n", table.render().c_str());
  r.check(total_violating_rates > 0, "some naive rate violates an MVTU constraint",
          std::to_string(total_violating_rates) + " of 17 rates", ">= 1");
  r.check(aware_violations == 0, "no dataflow-aware keep count violates one",
          std::to_string(aware_violations) + " layer-rates", "0");
}

/// Ablation: the FPGA device. The reconfiguration time — which drives the
/// Fixed/Flexible rule and the cost of every Fixed-Pruning switch — differs
/// per board (ZCU104 ~145 ms, ZCU102 ~170 ms, PYNQ-Z1 ~133 ms at much lower
/// fabric budget/power). Rebuilding the library per device shows how the
/// same Runtime Manager adapts: slower reconfiguration shifts it toward the
/// Flexible accelerator.
void ablation_device(Report& r) {
  bench::print_banner("Ablation: FPGA device",
                      "Library + Scenario 1+2 per board (CNVW2A2/SynthCIFAR-10)");
  const edge::WorkloadConfig wl = edge::scenario1_plus_2();

  // Reduced sweep: the device comparison needs the shape, not 18 rates.
  core::LibraryConfig lib_config = bench::standard_library_config();
  lib_config.rates = {0.0, 0.15, 0.30, 0.45, 0.60, 0.75};
  lib_config.base_epochs = 6;
  lib_config.retrain_epochs = 2;

  TextTable table({"device", "reconfig[ms]", "loss_Ada", "loss_FINN", "P_Ada[W]", "P_FINN[W]",
                   "reconfigs/run", "eff_wrt_FINN"});
  int boards = 0;
  int boards_losing_less = 0;
  double min_eff = std::numeric_limits<double>::infinity();
  for (const char* name : {"zcu104", "zcu102", "pynq-z1"}) {
    const core::AcceleratorLibrary lib = bench::combo_library(Combo::kCifarW2A2, name, lib_config);
    const edge::RunMetrics ada = run_adaflow(lib, wl);
    const edge::RunMetrics finn = run_finn(lib, wl);
    const Cells a = cells(ada, finn);
    const Cells f = cells(finn, finn);
    table.add_row({fpga::device_by_name(name).name, format_double(lib.reconfig_time_s * 1e3, 0),
                   a.loss, f.loss, a.power, f.power, a.reconfigs, a.eff});
    ++boards;
    boards_losing_less += ada.frame_loss() < finn.frame_loss() ? 1 : 0;
    min_eff = std::min(min_eff, ada.power_efficiency() / finn.power_efficiency());
  }
  std::printf("%s\n", table.render().c_str());
  r.check(boards_losing_less == boards, "AdaFlow loses fewer frames than FINN on every board",
          std::to_string(boards_losing_less), std::to_string(boards) + " boards");
  r.check(min_eff > 1.0, "efficiency w.r.t. FINN > 1 on every board",
          "lowest " + ratio(min_eff), "> 1");
}

/// Ablation: AdaFlow vs an offline-optimal oracle. The oracle sees the true
/// workload rate (no estimation noise or lag) and knows when the next change
/// comes, so its Fixed/Flexible choice uses real lookahead. The remaining
/// gap to the oracle quantifies the cost of the Runtime Manager's online
/// heuristics; the gap to FINN quantifies what those heuristics already buy.
void ablation_oracle(Report& r) {
  bench::print_banner("Ablation: oracle upper bound",
                      "AdaFlow vs offline-optimal policy, all scenarios (CNVW2A2/SynthCIFAR-10)");
  const core::AcceleratorLibrary lib = bench::combo_library(Combo::kCifarW2A2);

  TextTable table({"scenario", "policy", "frame_loss", "QoE", "power[W]", "eff_wrt_FINN"});
  struct Losses {
    std::string scenario;
    double oracle, ada, finn;
  };
  std::vector<Losses> losses;
  for (auto [name, wl] :
       {std::pair{"Scen.1", edge::scenario1()}, {"Scen.2", edge::scenario2()},
        {"Scen.1+2", edge::scenario1_plus_2()}}) {
    const edge::RunMetrics finn = run_finn(lib, wl);
    const edge::RunMetrics ada = run_adaflow(lib, wl);
    // Pooled over every run: the oracle reads its run's trace ahead.
    const edge::RunMetrics oracle = sim::total(edge::run_each(
        wl,
        [&](const edge::WorkloadTrace& trace) {
          return std::make_unique<core::OraclePolicy>(lib, core::RuntimeManagerConfig{}, trace);
        },
        kServer, runs));
    for (const auto& [policy, m] :
         {std::pair{"Orig.FINN", &finn}, {"AdaFlow", &ada}, {"Oracle", &oracle}}) {
      const Cells c = cells(*m, finn);
      table.add_row({name, policy, c.loss, c.qoe, c.power, c.eff});
    }
    losses.push_back({name, oracle.frame_loss(), ada.frame_loss(), finn.frame_loss()});
  }
  std::printf("%s\n", table.render().c_str());

  for (const Losses& l : losses) {
    r.check(l.oracle <= l.ada && l.ada <= l.finn,
            l.scenario + ": oracle loss <= AdaFlow loss <= FINN loss",
            "AdaFlow " + percent(l.ada),
            "oracle " + percent(l.oracle) + " .. FINN " + percent(l.finn));
    const double closed = (l.finn - l.ada) / (l.finn - l.oracle);
    r.check(closed > 0.5,
            l.scenario + ": AdaFlow closes more than half of the FINN->oracle loss gap",
            format_percent(closed, 1), "> 50%");
  }
}

/// Robustness of the serving stack under deterministic fault injection:
/// the Runtime Manager runs on the hardened Edge server (switch timeout +
/// bounded retry, Fixed->Flexible fallback, stall watchdog, load shedding)
/// and unhardened, under bit-identical fault schedules, compared on QoE /
/// frame loss plus the robustness counters. Expected shape: the hardened
/// server sustains strictly higher QoE and lower frame loss under a
/// reconfiguration-failure storm, and no schedule ever aborts a simulation.
struct FaultScenario {
  std::string name;
  edge::WorkloadConfig workload;
  faults::FaultSchedule schedule;
};

/// Runs \p sc on the hardened or the unhardened server, adds its table row
/// and returns the runs folded.
edge::RepeatedRunResult evaluate_faults(TextTable& table, const core::AcceleratorLibrary& lib,
                                        const FaultScenario& sc, bool hardened) {
  edge::ServerConfig server;
  server.fault_tolerance = hardened;
  // The injector seed depends only on the run's seed, so hardened and
  // unhardened face the exact same fault sequence.
  const std::vector<edge::RunMetrics> per_run = edge::run_each(
      sc.workload,
      [&] { return std::make_unique<core::RuntimeManager>(lib, core::RuntimeManagerConfig{}); },
      server, runs, edge::kRunSeedBase, [&](std::uint64_t seed) {
        return faults::FaultInjector(sc.schedule, seed ^ 0x9e3779b97f4a7c15ULL);
      });
  const edge::RepeatedRunResult r = edge::summarize_runs(per_run);
  double degraded = 0.0;
  double mttr_s = 0.0;
  for (const edge::RunMetrics& m : per_run) {
    degraded += m.faults.degraded_fraction(m.duration_s);
    mttr_s += m.faults.mean_time_to_recovery_s();
  }
  const sim::FaultStats& f = r.mean.faults;
  auto count = [](std::int64_t v) { return format_double(static_cast<double>(v), 1); };
  table.add_row({sc.name, hardened ? "hardened" : "unhardened", percent(r.frame_loss.mean()),
                 percent(r.qoe.mean()), count(f.total_injected()), count(f.switch_retries),
                 count(f.fallbacks), count(f.overload_sheds), count(f.switches_abandoned),
                 count(f.stalls_recovered), format_percent(degraded / runs, 1),
                 format_double(mttr_s / runs * 1e3, 1)});
  return r;
}

void faults_figure(Report& r) {
  bench::print_banner("Fault injection",
                      "hardened vs unhardened Runtime Manager under identical fault schedules");
  const core::AcceleratorLibrary lib = bench::combo_library(Combo::kCifarW2A2);

  faults::FaultSchedule stall_schedule;
  stall_schedule.faults.push_back(
      faults::FaultSpec{faults::FaultKind::kAcceleratorStall, 5.0, 15.0, 0.002, 2.0});
  const std::vector<FaultScenario> scenarios = {
      // The storm spans both workload phases: failed switches leave the
      // unhardened policy believing a stale mode through the unstable phase.
      {"reconfig-storm", edge::scenario1_plus_2(),
       faults::reconfig_failure_storm(2.0, 24.0, 0.9, 2.0)},
      {"flaky-edge", edge::scenario2(), faults::flaky_edge_schedule(25.0)},
      {"stalls", edge::scenario1(), stall_schedule},
  };

  TextTable table({"schedule", "server", "frame_loss", "QoE", "inj/run", "retries", "fallbacks",
                   "sheds", "abandoned", "stalls_rec", "degraded", "MTTR[ms]"});
  std::vector<std::pair<edge::RepeatedRunResult, edge::RepeatedRunResult>> results;
  for (const FaultScenario& sc : scenarios) {
    edge::RepeatedRunResult hardened = evaluate_faults(table, lib, sc, true);  // row order
    results.emplace_back(std::move(hardened), evaluate_faults(table, lib, sc, false));
  }
  std::printf("%s\n", table.render().c_str());

  const auto& [hardened, baseline] = results.front();
  r.check(hardened.qoe.mean() > baseline.qoe.mean() &&
              hardened.frame_loss.mean() < baseline.frame_loss.mean(),
          "reconfig-storm: hardened server sustains higher QoE and lower frame loss",
          "QoE " + percent(hardened.qoe.mean()) + ", loss " + percent(hardened.frame_loss.mean()),
          "> " + percent(baseline.qoe.mean()) + ", < " + percent(baseline.frame_loss.mean()));
}

struct Entry {
  const char* name;
  void (*run)(Report&);
};

constexpr Entry kEntries[] = {
    {"fig1a", fig1a},
    {"fig1b", fig1b},
    {"fig5a", fig5a},
    {"fig5bc", fig5bc},
    {"table1", table1},
    {"fig6", fig6},
    {"ablation_switch_interval", ablation_switch_interval},
    {"ablation_threshold", ablation_threshold},
    {"ablation_naive_pruning", ablation_naive_pruning},
    {"ablation_device", ablation_device},
    {"ablation_oracle", ablation_oracle},
    {"faults", faults_figure},
    {"fleet", bench::fleet_bench},
    {"chaos", bench::chaos_bench},
    {"forecast", bench::forecast_bench},
    {"ingest", bench::ingest_bench},
    {"tenant", bench::tenant_bench},
    {"shard", bench::shard_bench},
    {"integrity", bench::integrity_bench},
    {"detect", bench::detect_bench},
    {"dse", bench::dse_bench},
};

}  // namespace

int main(int argc, char** argv) {
  std::vector<const Entry*> selected;
  for (int i = 1; i < argc; ++i) {
    const auto it = std::find_if(std::begin(kEntries), std::end(kEntries), [&](const Entry& e) {
      return std::strcmp(e.name, argv[i]) == 0;
    });
    if (it == std::end(kEntries)) {
      std::fprintf(stderr, "unknown entry '%s'; valid entries:", argv[i]);
      for (const Entry& e : kEntries) {
        std::fprintf(stderr, " %s", e.name);
      }
      std::fprintf(stderr, "\n");
      return 2;
    }
    selected.push_back(it);
  }
  if (selected.empty()) {
    for (const Entry& e : kEntries) {
      selected.push_back(&e);
    }
  }
  try {
    runs = bench::bench_runs();
    bool passed = true;
    for (const Entry* e : selected) {
      Report report(e->name);
      e->run(report);
      if (report.check.passed()) {
        report.json.write();
      }
      passed = passed && report.check.passed();
    }
    return passed ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}

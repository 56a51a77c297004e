/// Figure 6(a,b): frame-loss and QoE time series for CNVW2A2 on CIFAR-10
/// under Scenario 1 (stable), Scenario 2 (unpredictable) and the composite
/// Scenario 1+2 (stable for 15 s, then unpredictable), for AdaFlow and the
/// original FINN — plus AdaFlow's model-switch trace for Scenario 1+2
/// (the paper annotates the pruned rates used and the "Change of Dataflow"
/// reconfiguration that brings in the Flexible accelerator).

#include <cstdio>
#include <memory>

#include "adaflow/common/strings.hpp"
#include "adaflow/common/table.hpp"
#include "common.hpp"

int main() {
  using namespace adaflow;
  const int runs = bench::bench_runs();
  bench::print_banner("Figure 6(a,b)",
                      "Frame loss & QoE over time, CNVW2A2/SynthCIFAR-10, 3 scenarios");

  const core::AcceleratorLibrary lib = bench::combo_library(bench::Combo::kCifarW2A2);
  const edge::ServerConfig server;
  core::RuntimeManagerConfig rmc;

  struct Entry {
    std::string name;
    edge::WorkloadConfig workload;
  };
  const std::vector<Entry> scenarios = {{"Scen.1", edge::scenario1()},
                                        {"Scen.2", edge::scenario2()},
                                        {"Scen.1+2", edge::scenario1_plus_2()}};

  TextTable totals({"scenario", "policy", "frame_loss", "QoE", "power[W]", "switches/run",
                    "reconfigs/run"});
  edge::RepeatedRunResult composite_ada;

  for (const Entry& e : scenarios) {
    auto ada = edge::run_repeated(
        e.workload, [&] { return std::make_unique<core::RuntimeManager>(lib, rmc); }, server,
        runs);
    auto finn = edge::run_repeated(
        e.workload, [&] { return std::make_unique<core::StaticFinnPolicy>(lib); }, server, runs);

    totals.add_row({e.name, "AdaFlow", format_percent(ada.mean.frame_loss(), 2),
                    format_percent(ada.mean.qoe(), 2),
                    format_double(ada.mean.average_power_w(), 3),
                    format_double(static_cast<double>(ada.mean.model_switches), 1),
                    format_double(static_cast<double>(ada.mean.reconfigurations), 1)});
    totals.add_row({e.name, "Orig.FINN", format_percent(finn.mean.frame_loss(), 2),
                    format_percent(finn.mean.qoe(), 2),
                    format_double(finn.mean.average_power_w(), 3), "0", "0"});

    std::printf("%s\n",
                bench::render_series(ada.mean.loss_series,
                                     "Fig6a frame loss % — AdaFlow " + e.name, 100.0)
                    .c_str());
    std::printf("%s\n",
                bench::render_series(finn.mean.loss_series,
                                     "Fig6a frame loss % — FINN " + e.name, 100.0)
                    .c_str());
    std::printf("%s\n", bench::render_series(ada.mean.qoe_series,
                                             "Fig6b QoE % — AdaFlow " + e.name, 100.0)
                            .c_str());
    std::printf("%s\n", bench::render_series(finn.mean.qoe_series,
                                             "Fig6b QoE % — FINN " + e.name, 100.0)
                            .c_str());
    std::string stem = e.name == "Scen.1" ? "fig6_s1" : (e.name == "Scen.2" ? "fig6_s2" : "fig6_s12");
    bench::export_figure(stem + "_loss", "Fig 6(a) frame loss — " + e.name, "frame loss",
                         {{"AdaFlow", ada.mean.loss_series}, {"FINN", finn.mean.loss_series}});
    bench::export_figure(stem + "_qoe", "Fig 6(b) QoE — " + e.name, "QoE",
                         {{"AdaFlow", ada.mean.qoe_series}, {"FINN", finn.mean.qoe_series}});

    if (e.name == "Scen.1+2") {
      composite_ada = std::move(ada);
    }
  }
  std::printf("%s\n", totals.render().c_str());

  std::printf("Model-switch trace (first run, Scenario 1+2 — paper annotates these):\n");
  bool change_of_dataflow_seen = false;
  std::string prev_accel = "Fixed";
  for (const edge::SwitchRecord& s : composite_ada.mean.switches) {
    const bool change_of_dataflow =
        edge::is_flexible(s.accelerator) && !edge::is_flexible(prev_accel);
    std::printf("  t=%6.2fs  -> %-14s on %-16s %s%s\n", s.time_s, s.model_version.c_str(),
                s.accelerator.c_str(), s.reconfiguration ? "[FPGA reconfiguration]" : "[fast switch]",
                change_of_dataflow ? "  <-- Change of Dataflow" : "");
    change_of_dataflow_seen |= change_of_dataflow;
    prev_accel = s.accelerator;
  }
  std::printf("shape check: composite scenario %s a Fixed->Flexible 'Change of Dataflow'\n",
              change_of_dataflow_seen ? "exhibits" : "DID NOT exhibit");
  return 0;
}

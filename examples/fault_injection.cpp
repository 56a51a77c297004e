/// Fault injection & self-healing in two minutes (no library training):
/// a hand-written four-version library, a composite workload, and a
/// reconfiguration-failure storm replayed bit-identically against the
/// hardened and the unhardened Edge server. Shows the retry -> fallback
/// (Fixed -> Flexible) -> recovery ladder and the robustness counters.

#include <cstdio>

#include "adaflow/common/strings.hpp"
#include "adaflow/common/table.hpp"
#include "adaflow/core/runtime_manager.hpp"
#include "adaflow/edge/server.hpp"
#include "adaflow/faults/fault_injector.hpp"

namespace {

adaflow::core::AcceleratorLibrary toy_library() {
  using namespace adaflow;
  core::AcceleratorLibrary lib;
  lib.model_name = "CNV-toy";
  lib.dataset_name = "synthetic";
  lib.reconfig_time_s = 0.145;  // the paper's ZCU104 figure
  lib.finn_power_busy_w = 1.0;
  lib.finn_power_idle_w = 0.7;
  struct Row {
    int rate;
    double acc;
    double fps;
  };
  for (const Row& r : {Row{0, 0.90, 500}, Row{25, 0.86, 700}, Row{50, 0.83, 1000},
                       Row{75, 0.82, 2000}}) {
    core::ModelVersion v;
    v.version = "toy@p" + std::to_string(r.rate);
    v.requested_rate = r.rate / 100.0;
    v.achieved_rate = v.requested_rate;
    v.accuracy = r.acc;
    v.fps_fixed = r.fps;
    v.fps_flexible = r.fps * 0.995;
    v.power_busy_fixed_w = 1.0;
    v.power_idle_fixed_w = 0.7;
    v.power_busy_flexible_w = 1.2;
    v.power_idle_flexible_w = 0.8;
    v.flexible_switch_time_s = 0.001;
    lib.versions.push_back(v);
  }
  lib.base_accuracy = 0.90;
  return lib;
}

}  // namespace

int main() {
  using namespace adaflow;
  const core::AcceleratorLibrary lib = toy_library();
  const edge::WorkloadConfig workload = edge::scenario1_plus_2();
  const core::RuntimeManagerConfig rmc;

  // Every reconfiguration attempted between 2 s and 18 s fails with 90%
  // probability, and surviving ones run 2x slower half the time.
  const faults::FaultSchedule storm = faults::reconfig_failure_storm(2.0, 18.0, 0.9, 2.0);

  TextTable table({"server", "frame_loss", "QoE", "failures", "retries", "fallbacks",
                   "abandoned", "degraded", "MTTR[ms]"});
  for (bool hardened : {true, false}) {
    edge::ServerConfig server;
    server.fault_tolerance = hardened;
    edge::WorkloadTrace trace(workload, /*seed=*/7);
    core::RuntimeManager policy(lib, rmc);
    faults::FaultInjector injector(storm, /*seed=*/21);
    const edge::RunMetrics m = edge::run_simulation(trace, policy, server, /*seed=*/42, &injector);
    table.add_row({hardened ? "hardened" : "unhardened", format_percent(m.frame_loss(), 2),
                   format_percent(m.qoe(), 2), std::to_string(m.faults.switch_failures),
                   std::to_string(m.faults.switch_retries), std::to_string(m.faults.fallbacks),
                   std::to_string(m.faults.switches_abandoned),
                   format_percent(m.faults.degraded_fraction(m.duration_s), 1),
                   format_double(m.faults.mean_time_to_recovery_s() * 1e3, 1)});
    if (hardened) {
      std::printf("hardened switch trace (applied switches only):\n");
      for (const edge::SwitchRecord& s : m.switches) {
        std::printf("  t=%5.2fs  -> %-10s on %-12s %s\n", s.time_s, s.model_version.c_str(),
                    s.accelerator.c_str(),
                    s.reconfiguration ? "[FPGA reconfiguration]" : "[fast switch]");
      }
    }
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("The hardened server retries failed reconfigurations with backoff and falls\n"
              "back to the Flexible accelerator (the paper's safety net); the unhardened\n"
              "server silently keeps serving the old model while its policy believes the\n"
              "switch happened.\n");
  return 0;
}

/// bench_faults: robustness of the serving stack under deterministic fault
/// injection. Runs the AdaFlow Runtime Manager twice under bit-identical
/// fault schedules — once on the hardened Edge server (switch timeout +
/// bounded retry, Fixed->Flexible fallback, stall watchdog, load shedding)
/// and once unhardened — and compares QoE / frame loss plus the robustness
/// counters. Expected shape: the hardened server sustains strictly higher
/// QoE and lower frame loss under a reconfiguration-failure storm, and no
/// schedule ever aborts a simulation.

#include <cstdio>
#include <string>
#include <vector>

#include "adaflow/common/strings.hpp"
#include "adaflow/common/table.hpp"
#include "adaflow/faults/fault_injector.hpp"
#include "adaflow/fpga/device.hpp"
#include "adaflow/sim/fields.hpp"
#include "common.hpp"

namespace {

using namespace adaflow;

struct Summary {
  sim::RunningStat loss;
  sim::RunningStat qoe;
  sim::FaultStats faults;  ///< per-run means
  double degraded_fraction = 0.0;
  double mttr_s = 0.0;
};

Summary evaluate(const core::AcceleratorLibrary& lib, const edge::WorkloadConfig& workload,
                 const faults::FaultSchedule& schedule, bool hardened, int runs) {
  edge::ServerConfig server;
  server.fault_tolerance.enabled = hardened;
  core::RuntimeManagerConfig rmc;

  Summary s;
  std::vector<sim::FaultStats> per_run;
  double degraded = 0.0;
  double mttr = 0.0;
  for (int r = 0; r < runs; ++r) {
    const std::uint64_t seed = 1000 + static_cast<std::uint64_t>(r);
    edge::WorkloadTrace trace(workload, seed);
    core::RuntimeManager policy(lib, rmc);
    // The injector seed depends only on the run index, so hardened and
    // unhardened face the exact same fault sequence.
    faults::FaultInjector injector(schedule, seed ^ 0x9e3779b97f4a7c15ULL);
    edge::RunMetrics m =
        edge::run_simulation(trace, policy, server, seed ^ 0x5bd1e995ULL, &injector);
    s.loss.add(m.frame_loss());
    s.qoe.add(m.qoe());
    per_run.push_back(m.faults);
    degraded += m.faults.degraded_fraction(m.duration_s);
    mttr += m.faults.mean_time_to_recovery_s();
  }
  s.faults = sim::mean(per_run);
  s.degraded_fraction = degraded / runs;
  s.mttr_s = mttr / runs;
  return s;
}

}  // namespace

int main() {
  const int runs = bench::bench_runs();
  bench::print_banner("Fault injection",
                      "hardened vs unhardened Runtime Manager under identical fault schedules");

  const core::AcceleratorLibrary lib = bench::combo_library(bench::Combo::kCifarW2A2);

  struct Scenario {
    std::string name;
    edge::WorkloadConfig workload;
    faults::FaultSchedule schedule;
  };
  faults::FaultSchedule stall_schedule;
  stall_schedule.faults.push_back(
      faults::FaultSpec{faults::FaultKind::kAcceleratorStall, 5.0, 15.0, 0.002, 2.0});
  const std::vector<Scenario> scenarios = {
      // The storm spans both workload phases: failed switches leave the
      // unhardened policy believing a stale mode through the unstable phase.
      {"reconfig-storm", edge::scenario1_plus_2(),
       faults::reconfig_failure_storm(2.0, 24.0, 0.9, 2.0)},
      {"flaky-edge", edge::scenario2(), faults::flaky_edge_schedule(25.0)},
      {"stalls", edge::scenario1(), stall_schedule},
  };

  TextTable table({"schedule", "server", "frame_loss", "QoE", "inj/run", "retries", "fallbacks",
                   "sheds", "abandoned", "stalls_rec", "degraded", "MTTR[ms]"});
  bool storm_shape_ok = false;
  for (const Scenario& sc : scenarios) {
    const Summary hardened = evaluate(lib, sc.workload, sc.schedule, true, runs);
    const Summary baseline = evaluate(lib, sc.workload, sc.schedule, false, runs);
    auto row = [&](const char* name, const Summary& s) {
      table.add_row({sc.name, name, format_percent(s.loss.mean(), 2),
                     format_percent(s.qoe.mean(), 2),
                     format_double(static_cast<double>(s.faults.total_injected()), 1),
                     format_double(static_cast<double>(s.faults.switch_retries), 1),
                     format_double(static_cast<double>(s.faults.fallbacks), 1),
                     format_double(static_cast<double>(s.faults.overload_sheds), 1),
                     format_double(static_cast<double>(s.faults.switches_abandoned), 1),
                     format_double(static_cast<double>(s.faults.stalls_recovered), 1),
                     format_percent(s.degraded_fraction, 1),
                     format_double(s.mttr_s * 1e3, 1)});
    };
    row("hardened", hardened);
    row("unhardened", baseline);
    if (sc.name == "reconfig-storm") {
      storm_shape_ok =
          hardened.qoe.mean() > baseline.qoe.mean() && hardened.loss.mean() < baseline.loss.mean();
    }
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("shape check: under the reconfiguration-failure storm the hardened server %s "
              "strictly higher QoE and lower frame loss than the unhardened baseline\n",
              storm_shape_ok ? "sustains" : "DID NOT sustain");
  return storm_shape_ok ? 0 : 1;
}

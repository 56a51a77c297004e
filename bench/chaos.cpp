/// `bench_adaflow chaos`: the fleet resilience layer under seeded whole-device chaos.
///
/// Part A is the headline comparison: a four-device coordinated fleet under
/// a flat near-capacity trace, with device 0 crashing mid-run and recovering
/// later. The PR 2 baseline dispatcher keeps counting the dead device as
/// capacity (the coordinator divides the aggregate rate by four), so the
/// three survivors stay on the slow, accurate version and shed frames for
/// the whole outage. The health-monitored dispatcher quarantines the corpse
/// within a couple of monitor ticks, re-partitions the survivors onto a
/// faster version, and re-admits the device after its scheduled recovery via
/// half-open probes. Expected shape: strictly fewer lost frames, quarantine
/// and rejoin both observed, every device healthy again at the end.
///
/// Part B sweeps seeded crash / hang / degrade schedules across several
/// seeds and asserts the SLO invariants on every run: flow conservation
/// (arrived + redispatched == dispatched + ingress_lost + ingress_backlog),
/// a frame-loss ceiling, no frame stuck forever on a sick device, and
/// quarantined devices rejoining once their fault window ends.
///
/// Part C replays one chaos configuration twice with the same seed and
/// requires bit-identical FleetMetrics including the resilience counters —
/// whole-device fault windows are drawn once from the (schedule, seed) pair,
/// so chaos runs inherit the simulator's determinism guarantee.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "adaflow/common/strings.hpp"
#include "adaflow/common/table.hpp"
#include "adaflow/core/library.hpp"
#include "adaflow/faults/fault_injector.hpp"
#include "adaflow/fleet/fleet.hpp"
#include "adaflow/shard/sharded_engine.hpp"
#include "common.hpp"

namespace adaflow::bench {
namespace {

/// Four pinned version-0 devices behind the fleet coordinator; dev0 carries
/// \p schedule. The workload sits just above three devices' version-0
/// capacity, so losing a device without re-partitioning means sustained
/// overload — the regime the resilience layer is for.
fleet::FleetConfig chaos_fleet(const core::AcceleratorLibrary& lib,
                               const faults::FaultSchedule& schedule, bool health,
                               double hedge_budget_s) {
  fleet::FleetConfig config;
  for (int i = 0; i < 4; ++i) {
    config.devices.push_back(fleet::pinned_device("dev" + std::to_string(i), lib, 0));
  }
  config.devices[0].fault_schedule = schedule;
  config.coordinator.enabled = true;
  config.coordinator.poll_interval_s = 0.25;
  config.coordinator.warmup_s = 0.5;
  config.coordinator.estimate_window_s = 0.5;
  config.coordinator.drain_timeout_s = 0.5;
  // A repartition idles one of four devices; scale the paper's 10x spacing
  // rule accordingly so the coordinator can walk the survivors quickly.
  config.coordinator.switch_interval_factor = 10.0 / 4.0;
  if (health) {
    config.health.enabled = true;
    config.health.tick_interval_s = 0.25;
    config.health.suspect_timeout_s = 0.75;
    config.health.quarantine_timeout_s = 0.75;
    config.health.probe_interval_s = 0.75;
    config.health.probe_timeout_s = 0.75;
    config.health.rejoin_probes = 2;
    config.health.hedge_budget_s = hedge_budget_s;
  }
  return config;
}

fleet::FleetMetrics run(const edge::WorkloadTrace& trace, const core::AcceleratorLibrary& lib,
                        const fleet::FleetConfig& config, std::uint64_t seed) {
  return shard::run_sharded_fleet(trace, lib, config, {}, "least-loaded", seed).fleet;
}

void emit(bench::BenchJson& json, const std::string& scenario, const fleet::FleetMetrics& m) {
  json.set(scenario, "frame_loss", m.frame_loss(), Better::kLower);
  json.set(scenario, "qoe", m.qoe(), Better::kHigher);
  json.set(scenario, "lost", m.lost(), Better::kLower);
  json.set(scenario, "quarantines", m.quarantines, Better::kInfo);
  json.set(scenario, "rejoins", m.rejoins, Better::kInfo);
  json.set(scenario, "redispatched", m.redispatched, Better::kInfo);
}

void add_row(TextTable& table, const std::string& name, const fleet::FleetMetrics& m) {
  table.add_row({name, std::to_string(m.lost()), format_percent(m.frame_loss(), 2),
                 format_percent(m.qoe(), 2), std::to_string(m.quarantines),
                 std::to_string(m.rejoins), std::to_string(m.redispatched),
                 std::to_string(m.hedged), std::to_string(m.repartitions)});
}

bool conserved(const fleet::FleetMetrics& m) {
  return fleet::conserves_flow(m) && m.hedged <= m.redispatched;
}

}  // namespace

void chaos_bench(Report& report) {
  auto& [check, json] = report;
  bench::print_banner("Fleet chaos",
                      "seeded whole-device faults vs the health-monitored dispatcher");

  const core::AcceleratorLibrary lib = core::synthetic_library();
  const double duration = 30.0;
  const double fault_start = 3.0;
  const double fault_end = 18.0;
  // 4 x 500 FPS capacity; 1600 FPS load. Three survivors on version 0 are
  // 100 FPS short; re-partitioned to version 1 they have headroom again.
  const double rate = 1600.0;
  const edge::WorkloadTrace trace(bench::stream(rate, 0.0, duration, duration), 17);

  // --- Part A: crash + recovery, baseline vs monitored --------------------
  const faults::FaultSchedule crash = faults::device_crash_window(fault_start, fault_end);
  TextTable table({"dispatcher", "lost", "frame_loss", "QoE", "quarantines", "rejoins",
                   "redispatched", "hedged", "repartitions"});
  const fleet::FleetMetrics baseline =
      run(trace, lib, chaos_fleet(lib, crash, /*health=*/false, 0.0), 42);
  const fleet::FleetMetrics monitored =
      run(trace, lib, chaos_fleet(lib, crash, /*health=*/true, 0.0), 42);
  const fleet::FleetMetrics hedging =
      run(trace, lib, chaos_fleet(lib, crash, /*health=*/true, 0.5), 42);
  add_row(table, "baseline (PR 2)", baseline);
  add_row(table, "health-monitored", monitored);
  add_row(table, "monitored + hedge 0.5s", hedging);
  emit(json, "crash_baseline", baseline);
  emit(json, "crash_monitored", monitored);
  emit(json, "crash_hedging", hedging);
  std::printf("crash window %.0fs..%.0fs of a %.0fs run, flat %.0f FPS, 4 devices:\n%s\n",
              fault_start, fault_end, duration, rate, table.render().c_str());

  check(monitored.lost() < baseline.lost(),
        "health-monitored dispatcher loses strictly fewer frames than baseline");
  check(monitored.quarantines >= 1, "the crashed device was quarantined");
  check(monitored.rejoins >= 1, "the recovered device rejoined the fleet");
  bool all_healthy = true;
  for (const fleet::FleetDeviceResult& d : monitored.devices) {
    all_healthy = all_healthy && d.final_health == fleet::HealthState::kHealthy;
  }
  check(all_healthy, "every device is healthy again at the end of the run");
  check(conserved(baseline) && conserved(monitored) && conserved(hedging),
        "flow conservation holds with and without the monitor");
  check(baseline.faults.device_crashes == 1 && monitored.faults.device_crashes == 1,
        "exactly one crash window manifested in both runs");

  // --- Part B: seeded chaos sweep with SLO invariants ----------------------
  struct Scenario {
    const char* name;
    faults::FaultSchedule schedule;
  };
  const std::vector<Scenario> scenarios = {
      {"crash", faults::device_crash_window(fault_start, fault_end)},
      {"hang", faults::device_hang_window(fault_start, fault_end)},
      {"degrade", faults::device_degrade_window(fault_start, fault_end, /*latency_factor=*/6.0,
                                                /*accuracy_penalty=*/0.15)},
  };
  const std::vector<std::uint64_t> seeds = {1, 2, 3, 4, 5};
  TextTable sweep({"scenario", "seed", "lost", "frame_loss", "QoE", "quarantines", "rejoins",
                   "redispatched", "stuck"});
  bool sweep_conserved = true;
  bool sweep_loss_bounded = true;
  bool sweep_no_stuck = true;
  bool sweep_rejoined = true;
  for (const Scenario& s : scenarios) {
    for (const std::uint64_t seed : seeds) {
      const fleet::FleetMetrics m =
          run(trace, lib, chaos_fleet(lib, s.schedule, /*health=*/true, 0.5), seed);
      if (seed == seeds.front()) {
        emit(json, std::string("sweep_") + s.name, m);
      }
      // "Stuck" frames: still queued at t_end on a device the monitor holds
      // out of rotation — bounded by one in-flight probe per sick device.
      std::int64_t stuck = 0;
      for (std::size_t i = 0; i < m.devices.size(); ++i) {
        if (m.devices[i].final_health == fleet::HealthState::kQuarantined ||
            m.devices[i].final_health == fleet::HealthState::kProbing) {
          stuck += m.devices[i].queued_at_end;
        }
      }
      sweep.add_row({s.name, std::to_string(seed), std::to_string(m.lost()),
                     format_percent(m.frame_loss(), 2), format_percent(m.qoe(), 2),
                     std::to_string(m.quarantines), std::to_string(m.rejoins),
                     std::to_string(m.redispatched), std::to_string(stuck)});
      sweep_conserved = sweep_conserved && conserved(m);
      // The fault window covers half the run; even so the fleet must keep
      // frame loss well under the deficit a blind dispatcher would eat.
      sweep_loss_bounded = sweep_loss_bounded && m.frame_loss() < 0.10;
      sweep_no_stuck = sweep_no_stuck && stuck <= 1;
      // The fault window ends well before t_end: any quarantined device must
      // have been probed back in by the end of the run.
      sweep_rejoined = sweep_rejoined && m.rejoins >= m.quarantines &&
                       (m.quarantines == 0 ||
                        m.devices[0].final_health == fleet::HealthState::kHealthy);
    }
  }
  std::printf("seeded chaos sweep (fault window %.0fs..%.0fs, monitored + hedge 0.5s):\n%s\n",
              fault_start, fault_end, sweep.render().c_str());
  check(sweep_conserved, "flow conservation holds on every chaos run");
  check(sweep_loss_bounded, "frame loss stays under 10% on every chaos run");
  check(sweep_no_stuck, "no frame is left stuck on an out-of-rotation device");
  check(sweep_rejoined, "every quarantined device rejoined after its fault window");

  // --- Part C: bit-identical replay under chaos ----------------------------
  auto replay = [&] {
    return run(trace, lib, chaos_fleet(lib, scenarios[0].schedule, /*health=*/true, 0.5), 777);
  };
  const fleet::FleetMetrics r1 = replay();
  const fleet::FleetMetrics r2 = replay();
  check(sim::identical(r1, r2), "same seed replays the chaos run bit-identically");
}

}  // namespace adaflow::bench

/// `bench_adaflow integrity`: the silent-corruption layer under sustained SEU storms.
///
/// Part A is the headline comparison: one pinned FINN-style device serving a
/// steady trace while seeded config upsets land throughout the run. Four
/// protection levels share the identical upset schedule:
///   unprotected  — no canaries, no scrubbing: the first upset corrupts the
///                  fabric and every later frame is silently wrong.
///   scrub-only   — blind periodic reload; repairs eventually, pays the
///                  reconfiguration tax whether or not anything is wrong.
///   detect-only  — canary probing + drift detector + triggered reload;
///                  pays a small throughput tax and repairs within ~2 canary
///                  intervals of an upset landing.
///   detect+scrub — both channels (scrubbing covers what canaries miss).
/// Expected shape: detection cuts wrong-frames-served by at least 5x over
/// the unprotected run at under 5% canary overhead, and wins on net QoE.
///
/// Part B sweeps the canary interval against the scrub period on the same
/// storm: the detection/overhead tradeoff surface the integrity config
/// exposes. Faster canaries shrink the corrupt window (never below the
/// reload time); the throughput tax grows linearly with the probe rate.
///
/// Part C moves to the fleet: an upset storm on one device of a monitored
/// three-device fleet. The drift detector trips, the device is reloaded and
/// force-quarantined, its queue drains back through the ingress, and the
/// books still balance. One configuration replays twice with the same seed
/// and must agree bit for bit — the upset schedule is drawn once at
/// injector construction, so integrity runs inherit the simulator's
/// determinism guarantee.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "adaflow/common/strings.hpp"
#include "adaflow/common/table.hpp"
#include "adaflow/core/library.hpp"
#include "adaflow/core/runtime_manager.hpp"
#include "adaflow/faults/fault_injector.hpp"
#include "adaflow/fleet/fleet.hpp"
#include "adaflow/integrity/runner.hpp"
#include "adaflow/shard/sharded_engine.hpp"
#include "common.hpp"

namespace adaflow::bench {
namespace {

edge::RunMetrics run_one(const edge::WorkloadTrace& trace, const core::AcceleratorLibrary& lib,
                         double canary_interval_s, double scrub_period_s,
                         const faults::FaultSchedule& storm, std::uint64_t seed) {
  integrity::IntegrityRunConfig config;
  config.canary.canary_interval_s = canary_interval_s;
  config.policy.scrub_period_s = scrub_period_s;
  config.policy.repair_cooldown_s = 0.5;
  return integrity::run_integrity(trace, std::make_unique<core::StaticFinnPolicy>(lib), lib,
                                  config, storm, seed);
}

void emit(bench::BenchJson& json, const std::string& scenario, const edge::RunMetrics& m) {
  json.set(scenario, "qoe", m.qoe(), Better::kHigher);
  json.set(scenario, "wrong_frames", m.integrity.wrong_frames, Better::kLower);
  json.set(scenario, "wrong_fraction", m.integrity.wrong_fraction(m.processed), Better::kLower);
  json.set(scenario, "corrupt_time_s", m.integrity.corrupt_time_s, Better::kLower);
  json.set(scenario, "canary_overhead", m.integrity.canary_overhead(m.processed),
           Better::kLower);
  json.set(scenario, "detections", m.integrity.detections, Better::kInfo);
  json.set(scenario, "repairs", m.integrity.repairs, Better::kInfo);
}

void add_row(TextTable& table, const std::string& name, const edge::RunMetrics& m) {
  table.add_row({name, std::to_string(m.integrity.upsets_injected),
                 std::to_string(m.integrity.wrong_frames),
                 format_percent(m.integrity.wrong_fraction(m.processed), 2),
                 format_double(m.integrity.corrupt_time_s, 1),
                 format_percent(m.integrity.canary_overhead(m.processed), 2),
                 std::to_string(m.integrity.detections),
                 std::to_string(m.integrity.repairs), std::to_string(m.integrity.scrubs),
                 format_percent(m.qoe(), 2)});
}

}  // namespace

void integrity_bench(Report& report) {
  auto& [check, json] = report;
  bench::print_banner("Silent-corruption integrity",
                      "SEU upset storms vs canary probing, drift detection and scrub/reload");

  const core::AcceleratorLibrary lib = core::synthetic_library();
  const double duration = 40.0;
  const double rate = 300.0;  // under version-0 capacity: the canary tax is the only pressure
  const double storm_start = 2.0;
  const double storm_end = duration - 2.0;
  const double upset_rate = 0.15;
  const faults::FaultSchedule storm =
      faults::config_upset_storm(storm_start, storm_end, upset_rate);
  const edge::WorkloadTrace trace(bench::stream(rate, 0.0, duration, duration), 17);

  // --- Part A: protection levels under the identical storm ----------------
  const edge::RunMetrics unprotected = run_one(trace, lib, 0.0, 0.0, storm, 42);
  const edge::RunMetrics scrub_only = run_one(trace, lib, 0.0, 2.0, storm, 42);
  const edge::RunMetrics detect_only = run_one(trace, lib, 0.2, 0.0, storm, 42);
  const edge::RunMetrics detect_scrub = run_one(trace, lib, 0.2, 4.0, storm, 42);

  TextTable table({"protection", "upsets", "wrong", "wrong%", "corrupt_s", "canary_tax",
                   "detections", "repairs", "scrubs", "QoE"});
  add_row(table, "unprotected", unprotected);
  add_row(table, "scrub-only 2s", scrub_only);
  add_row(table, "detect-only 0.2s", detect_only);
  add_row(table, "detect+scrub", detect_scrub);
  emit(json, "unprotected", unprotected);
  emit(json, "scrub_only", scrub_only);
  emit(json, "detect_only", detect_only);
  emit(json, "detect_scrub", detect_scrub);
  std::printf("upset storm %.1f/s over %.0fs..%.0fs, flat %.0f FPS, one pinned device:\n%s\n",
              upset_rate, storm_start, storm_end, rate, table.render().c_str());

  check(unprotected.integrity.upsets_injected >= 2,
        "the storm landed at least two upsets on the unprotected run");
  check(unprotected.integrity.canaries_sent == 0 &&
            unprotected.integrity.repairs == 0,
        "the unprotected run pays zero overhead and never repairs");
  check(detect_only.integrity.wrong_frames * 5 <= unprotected.integrity.wrong_frames,
        "detection cuts wrong-frames-served by at least 5x over the unprotected run");
  check(detect_only.integrity.canary_overhead(detect_only.processed) <= 0.05,
        "the canary throughput tax stays under 5%");
  check(detect_only.qoe() > unprotected.qoe(),
        "detection wins on net QoE (tax included) under the sustained storm");
  check(detect_only.integrity.detections >= 1 &&
            detect_only.integrity.repairs >= detect_only.integrity.detections,
        "every detection led to a repair reload");
  check(detect_only.integrity.false_alarms == 0 &&
            detect_scrub.integrity.false_alarms == 0,
        "golden canaries on a clean fabric never trip the detector");
  check(scrub_only.integrity.wrong_frames < unprotected.integrity.wrong_frames,
        "blind scrubbing alone already bounds the corrupt window");
  check(detect_scrub.integrity.wrong_frames * 3 <=
            unprotected.integrity.wrong_frames,
        "the combined channels keep the 3x+ win of the detection path");

  // --- Part B: canary-interval x scrub-period tradeoff surface -------------
  const std::vector<double> canary_intervals = {0.0, 0.5, 0.2, 0.1};
  const std::vector<double> scrub_periods = {0.0, 4.0, 1.0};
  TextTable sweep({"canary_s", "scrub_s", "wrong", "wrong%", "corrupt_s", "canary_tax",
                   "detections", "mean_detect_s", "QoE"});
  bool sweep_no_false_alarms = true;
  bool sweep_detect_beats_blind = true;
  std::int64_t blind_wrong = 0;
  for (const double scrub : scrub_periods) {
    for (const double canary : canary_intervals) {
      const edge::RunMetrics m = run_one(trace, lib, canary, scrub, storm, 42);
      sweep.add_row({format_double(canary, 1), format_double(scrub, 0),
                     std::to_string(m.integrity.wrong_frames),
                     format_percent(m.integrity.wrong_fraction(m.processed), 2),
                     format_double(m.integrity.corrupt_time_s, 1),
                     format_percent(m.integrity.canary_overhead(m.processed), 2),
                     std::to_string(m.integrity.detections),
                     format_double(m.integrity.mean_detection_latency_s(), 2),
                     format_percent(m.qoe(), 2)});
      sweep_no_false_alarms = sweep_no_false_alarms && m.integrity.false_alarms == 0;
      if (canary == 0.0) {
        blind_wrong = m.integrity.wrong_frames;
      } else if (scrub == 0.0 || scrub >= 4.0) {
        // Where scrubbing is absent or sparse, any probing rate beats the
        // blind run at the same scrub period. (An aggressive 1s scrub
        // already bounds the corrupt window at about its period, so probing
        // can only trade phase there, not win outright.)
        sweep_detect_beats_blind =
            sweep_detect_beats_blind && m.integrity.wrong_frames < blind_wrong;
      }
    }
  }
  std::printf("canary-interval x scrub-period sweep (same storm, same seed):\n%s\n",
              sweep.render().c_str());
  check(sweep_no_false_alarms, "no false alarms anywhere on the sweep");
  check(sweep_detect_beats_blind,
        "at every scrub period, probing serves fewer wrong frames than blind");

  // --- Part C: fleet quarantine + bit-identical replay ---------------------
  fleet::FleetConfig fconfig;
  fconfig.devices = fleet::homogeneous_devices(lib, core::RuntimeManagerConfig{}, 3);
  fconfig.devices[1].fault_schedule =
      faults::config_upset_storm(storm_start, duration * 0.75, 0.5);
  fconfig.health.enabled = true;
  fconfig.integrity.enabled = true;
  fconfig.integrity.canary_interval_s = 0.25;
  const edge::WorkloadTrace fleet_trace(bench::stream(1200.0, 0.0, duration, duration), 23);
  auto run_fleet_once = [&] {
    return shard::run_sharded_fleet(fleet_trace, lib, fconfig, {}, "least-loaded", 7).fleet;
  };
  const fleet::FleetMetrics f1 = run_fleet_once();
  const fleet::FleetMetrics f2 = run_fleet_once();
  std::printf("fleet: storm on dev1 of a monitored 3-device fleet: wrong=%lld detections=%lld "
              "quarantines=%lld repairs=%lld canary_tax=%s\n\n",
              static_cast<long long>(f1.integrity.wrong_frames),
              static_cast<long long>(f1.integrity.detections),
              static_cast<long long>(f1.quarantines),
              static_cast<long long>(f1.integrity.repairs),
              format_percent(f1.integrity.canary_overhead(f1.processed), 2).c_str());
  json.set("fleet_storm", "qoe", f1.qoe(), Better::kHigher);
  json.set("fleet_storm", "wrong_frames", f1.integrity.wrong_frames, Better::kLower);
  json.set("fleet_storm", "detections", f1.integrity.detections, Better::kInfo);
  json.set("fleet_storm", "quarantines", f1.quarantines, Better::kInfo);
  json.set("fleet_storm", "repairs", f1.integrity.repairs, Better::kInfo);
  json.set("fleet_storm", "canary_overhead", f1.integrity.canary_overhead(f1.processed),
           Better::kLower);

  check(f1.integrity.detections >= 1 && f1.quarantines >= 1,
        "the corrupted fleet device was detected and quarantined");
  check(f1.integrity.repairs >= 1, "the fleet issued at least one repair reload");
  check(f1.devices[0].metrics.integrity.canaries_failed == 0 &&
            f1.devices[2].metrics.integrity.canaries_failed == 0,
        "clean fleet devices never fail a canary");
  check(fleet::conserves_flow(f1), "flow conservation holds through quarantine drains");
  check(sim::identical(f1, f2), "same seed replays the integrity fleet run bit-identically");
}

}  // namespace adaflow::bench

// Golden replay pins. The fleet and shard strings were recorded before the
// event queue and the dispatcher were made allocation-free; the single-device
// runners' (run_simulation, run_integrity, run_detection) and the
// multi-tenant runner's before those runners moved onto the shared arrival
// source and single-device driver. Any change that moves a single simulated
// outcome moves them. A deliberate behaviour change re-records them, with the
// reason in its commit message; a speed-up or a refactor never does. The
// coordinator, hedging, upset-storm and detection fleet pins were recorded
// through the single-dispatcher fleet loop that run_sharded_fleet at one
// shard replaced. The per-policy single-device pins (reconfiguration-only,
// proactive, static FINN, oracle, static Flexible detection, and the Runtime
// Manager under a reconfiguration storm with overload) were recorded before
// every serving mode and switch price moved into core::serving_mode and
// core::switch_to; they carry both hashers. The ingest pin was recorded before
// every cadence and arrival chain moved onto sim::EventQueue::every / chain.
// The fleet, shard, tenant and ingest pins were re-recorded once, when
// always-zero members left FleetMetrics and TenantResult (both hashers
// dropped them) and the ingest run lost its decode backpressure override
// because that threshold became a constant (64). Each new pin equals the one
// the previous code gives with those two edits alone.
//
// `fingerprint` below is the test-side reference hasher: FNV-1a over every
// counter, every double (bitwise), every series, histogram, switch list,
// device row and tenant row, written out field by field and kept independent
// of the library's field tables on purpose, so its pins move only when a
// simulated number moves. The fleet and shard runs are also pinned with
// shard::metrics_fingerprint, whose pins also move when its coverage changes.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>

#include "adaflow/core/library.hpp"
#include "adaflow/core/oracle_policy.hpp"
#include "adaflow/core/runtime_manager.hpp"
#include "adaflow/detect/runner.hpp"
#include "adaflow/detect/scene.hpp"
#include "adaflow/detect/yolo.hpp"
#include "adaflow/edge/device_sim.hpp"
#include "adaflow/edge/server.hpp"
#include "adaflow/edge/workload.hpp"
#include "adaflow/faults/fault_injector.hpp"
#include "adaflow/fleet/fleet.hpp"
#include "adaflow/fpga/device.hpp"
#include "adaflow/ingest/pipeline.hpp"
#include "adaflow/integrity/runner.hpp"
#include "adaflow/shard/sharded_engine.hpp"
#include "adaflow/tenant/serving.hpp"

namespace adaflow {
namespace {

class Fnv {
 public:
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ = (h_ ^ ((v >> (8 * i)) & 0xffU)) * 0x100000001b3ULL;
    }
  }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void str(const std::string& s) {
    u64(s.size());
    for (const char c : s) {
      h_ = (h_ ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
    }
  }
  void series(const sim::TimeSeries& s) {
    f64(s.interval_s);
    u64(s.values.size());
    for (const double v : s.values) {
      f64(v);
    }
  }
  void histogram(const sim::LatencyHistogram& h) {
    i64(h.count());
    f64(h.sum_s());
    f64(h.min_s());
    f64(h.max_s());
    for (const std::int64_t b : h.buckets()) {
      i64(b);
    }
  }
  void faults(const sim::FaultStats& f) {
    for (const std::int64_t v :
         {f.reconfig_failures_injected, f.reconfig_slowdowns_injected, f.monitor_dropouts,
          f.monitor_noise_events, f.stalls_injected, f.burst_windows, f.device_crashes,
          f.device_hangs, f.degrade_windows, f.network_outage_drops, f.decode_faults_injected,
          f.switch_failures, f.switch_timeouts, f.switch_retries, f.fallbacks,
          f.switches_abandoned, f.stalls_recovered, f.overload_sheds, f.recoveries}) {
      i64(v);
    }
    f64(f.time_degraded_s);
    f64(f.recovery_time_sum_s);
  }
  void forecast(const sim::ForecastStats& f) {
    i64(f.forecasts);
    f64(f.abs_pct_error_sum);
    i64(f.interval_hits);
    i64(f.changepoints);
    i64(f.burst_windows);
  }
  void integrity(const sim::IntegrityStats& s) {
    for (const std::int64_t v : {s.upsets_injected, s.wrong_frames, s.canaries_sent,
                                 s.canaries_failed, s.detections, s.false_alarms, s.scrubs,
                                 s.repairs}) {
      i64(v);
    }
    f64(s.corrupt_time_s);
    f64(s.detection_latency_sum_s);
  }
  void detection(const sim::DetectionStats& d) {
    for (const std::int64_t v : {d.frames_scored, d.objects_total, d.candidates_total,
                                 d.suppressed_total, d.nms_pairs_total, d.true_positives,
                                 d.false_positives, d.missed_objects}) {
      i64(v);
    }
    f64(d.postprocess_s);
    f64(d.map_proxy_sum);
  }
  void run(const edge::RunMetrics& m) {
    i64(m.arrived);
    i64(m.processed);
    i64(m.lost);
    f64(m.qoe_accuracy_sum);
    f64(m.energy_j);
    f64(m.duration_s);
    f64(m.switch_stall_s);
    f64(m.violation_s);
    i64(m.model_switches);
    i64(m.reconfigurations);
    u64(m.switches.size());
    for (const edge::SwitchRecord& s : m.switches) {
      f64(s.time_s);
      str(s.model_version);
      str(s.accelerator);
      u64(s.reconfiguration ? 1 : 0);
    }
    faults(m.faults);
    forecast(m.forecast);
    integrity(m.integrity);
    detection(m.detection);
    histogram(m.e2e_latency);
    for (const sim::TimeSeries* s : {&m.workload_series, &m.loss_series, &m.qoe_series,
                                     &m.power_series, &m.forecast_actual_series,
                                     &m.forecast_pred_series}) {
      series(*s);
    }
  }
  void usage(const fleet::TenantUsage& u) {
    str(u.name);
    for (const std::int64_t v : {u.offered, u.admitted, u.throttled, u.shed, u.delivered, u.lost}) {
      i64(v);
    }
    f64(u.qoe_accuracy_sum);
    f64(u.slo_violation_s);
    histogram(u.latency);
  }
  void fleet(const fleet::FleetMetrics& m) {
    for (const std::int64_t v : {m.arrived, m.dispatched, m.ingress_lost, m.ingress_backlog,
                                 m.redispatched, m.hedged, m.quarantines, m.rejoins,
                                 m.processed, m.device_lost}) {
      i64(v);
    }
    f64(m.qoe_accuracy_sum);
    f64(m.energy_j);
    f64(m.duration_s);
    i64(m.model_switches);
    i64(m.reconfigurations);
    i64(m.repartitions);
    f64(m.tail_latency_p95_s);
    for (const sim::TimeSeries* s :
         {&m.workload_series, &m.loss_series, &m.qoe_series, &m.backlog_series}) {
      series(*s);
    }
    faults(m.faults);
    integrity(m.integrity);
    detection(m.detection);
    histogram(m.e2e_latency);
    u64(m.devices.size());
    for (const fleet::FleetDeviceResult& d : m.devices) {
      str(d.name);
      run(d.metrics);
      i64(d.queued_at_end);
      i64(d.quarantines);
      i64(d.rejoins);
      i64(static_cast<std::int64_t>(d.final_health));
    }
    u64(m.tenants.size());
    for (const fleet::TenantUsage& u : m.tenants) {
      usage(u);
    }
  }
  void tenants(const tenant::MultiTenantMetrics& m) {
    fleet(m.fleet);
    u64(m.tenants.size());
    for (const tenant::TenantResult& t : m.tenants) {
      usage(t.usage);
      for (const double v : {t.latency_p50_s, t.latency_p95_s, t.latency_p99_s, t.mean_accuracy,
                             t.accuracy_floor, t.in_budget_accuracy, t.offered_rate_mean_fps}) {
        f64(v);
      }
      i64(t.in_budget_delivered);
      u64(t.final_version);
      i64(t.version_switches);
    }
    f64(m.worst_violation_s);
    f64(m.total_violation_s);
    i64(m.device_moves);
    i64(m.version_switches);
    forecast(m.forecast);
  }

  void ingest(const ingest::IngestMetrics& m) {
    f64(m.duration_s);
    for (const std::int64_t v :
         {m.captured, m.duplicates, m.network_lost, m.network_in_flight, m.stale_dropped,
          m.reordered, m.thinned, m.dropall_shed, m.queue_drops, m.session_queued,
          m.decode_started, m.decode_failed, m.decode_in_flight, m.offered_to_fleet,
          m.fleet_shed, m.delivered, m.lost_in_fleet, m.fleet_backlog, m.degraded_delivered}) {
      i64(v);
    }
    f64(m.qoe_accuracy_sum);
    histogram(m.e2e_latency);
    i64(m.brownout.tier1_engagements);
    i64(m.brownout.tier2_engagements);
    f64(m.brownout.time_tier1_s);
    f64(m.brownout.time_tier2_s);
    f64(m.brownout.time_shedding_s);
    i64(m.final_tier);
    faults(m.faults);
    fleet(m.fleet);
    u64(m.sessions.size());
    for (const ingest::IngestSessionResult& r : m.sessions) {
      str(r.name);
      i64(static_cast<std::int64_t>(r.final_state));
      for (const std::int64_t v :
           {r.session.connects, r.session.disconnects, r.session.reconnect_attempts,
            r.session.frames_captured, r.network.transmitted, r.network.duplicates,
            r.network.lost_iid, r.network.lost_burst, r.network.lost_outage, r.network.delivered,
            r.filter.arrived, r.filter.accepted, r.filter.dropped_stale, r.filter.reordered,
            r.queue_drops, r.queued_at_end}) {
        i64(v);
      }
    }
  }

  std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

std::string fingerprint(const edge::RunMetrics& m) {
  Fnv f;
  f.run(m);
  return f.hex();
}

std::string fingerprint(const fleet::FleetMetrics& m) {
  Fnv f;
  f.fleet(m);
  return f.hex();
}

std::string fingerprint(const tenant::MultiTenantMetrics& m) {
  Fnv f;
  f.tenants(m);
  return f.hex();
}

std::string fingerprint(const ingest::IngestMetrics& m) {
  Fnv f;
  f.ingest(m);
  return f.hex();
}

constexpr double kDurationS = 6.0;

/// A bursty trace near the fleet's capacity: 16 devices, ~700 FPS each,
/// redrawn +-70% every 0.5 s, so devices switch and the ingress fills.
edge::WorkloadTrace golden_trace(int devices, std::uint64_t seed) {
  edge::WorkloadConfig c;
  c.devices = devices;
  c.fps_per_device = 700.0;
  c.phases = {edge::WorkloadPhase{0.7, 0.5, kDurationS}};
  return edge::WorkloadTrace(c, seed);
}

/// 16 AdaFlow devices, health monitoring on, device 5 flaky.
fleet::FleetConfig golden_fleet(const core::AcceleratorLibrary& lib) {
  fleet::FleetConfig config;
  config.devices = fleet::homogeneous_devices(lib, core::RuntimeManagerConfig{}, 16);
  config.ingress_capacity = 256;
  config.health.enabled = true;
  config.devices[5].fault_schedule = faults::flaky_edge_schedule(kDurationS);
  return config;
}

shard::ShardedMetrics run_golden_sharded(int shards) {
  const core::AcceleratorLibrary lib = core::synthetic_library();
  const fleet::FleetConfig config = golden_fleet(lib);
  const edge::WorkloadTrace trace = golden_trace(16, 3);
  shard::ShardConfig shard_cfg;
  shard_cfg.shards = shards;
  return shard::run_sharded_fleet(trace, lib, config, shard_cfg, "least-loaded", 11);
}

TEST(GoldenReplay, ShardedOneShardFingerprintIsPinned) {
  const shard::ShardedMetrics m = run_golden_sharded(1);
  EXPECT_EQ(shard::metrics_fingerprint(m.fleet), "42c32f6d21f12b03");
  EXPECT_EQ(fingerprint(m.fleet), "5179765259b0e047");
  // The pin is only worth something if the run exercises the hot path's
  // branches: mode switches, a full ingress, and the fault layer.
  EXPECT_GT(m.fleet.model_switches, 0);
  EXPECT_GT(m.fleet.ingress_lost, 0);
  EXPECT_GT(m.fleet.faults.stalls_injected, 0);
}

TEST(GoldenReplay, ShardedFourShardsFingerprintIsPinned) {
  const shard::ShardedMetrics m = run_golden_sharded(4);
  EXPECT_EQ(shard::metrics_fingerprint(m.fleet), "a041654b9db491e9");
  EXPECT_EQ(fingerprint(m.fleet), "be2755a8385f0ca5");
  EXPECT_GT(m.stats.handoffs, 0);
}

TEST(GoldenReplay, RunFleetWithCoordinatorFingerprintIsPinned) {
  const core::AcceleratorLibrary lib = core::synthetic_library();
  fleet::FleetConfig config = golden_fleet(lib);
  config.coordinator.enabled = true;
  const edge::WorkloadTrace trace = golden_trace(16, 5);
  const fleet::FleetMetrics m =
      shard::run_sharded_fleet(trace, lib, config, {}, "least-loaded", 23).fleet;
  EXPECT_EQ(shard::metrics_fingerprint(m), "0ad2f161b9c5632f");
  EXPECT_EQ(fingerprint(m), "abe1e983bcc36dfb");
  EXPECT_GT(m.reconfigurations, 0);
}

/// Four pinned version-0 devices behind the coordinator with the health
/// monitor on and queue-wait hedging; device 0 runs slow through a degrade
/// window (the chaos tests' hedging scenario).
TEST(GoldenReplay, HedgedFleetUnderDegradeFingerprintIsPinned) {
  const core::AcceleratorLibrary lib = core::synthetic_library();
  fleet::FleetConfig config;
  for (int i = 0; i < 4; ++i) {
    config.devices.push_back(fleet::pinned_device("dev" + std::to_string(i), lib, 0));
  }
  config.devices[0].fault_schedule = faults::device_degrade_window(3.0, 9.0, 6.0, 0.15);
  config.coordinator.enabled = true;
  config.coordinator.poll_interval_s = 0.25;
  config.coordinator.warmup_s = 0.5;
  config.coordinator.estimate_window_s = 0.5;
  config.coordinator.drain_timeout_s = 0.5;
  config.coordinator.switch_interval_factor = 2.5;
  config.health.enabled = true;
  config.health.tick_interval_s = 0.25;
  config.health.suspect_timeout_s = 0.75;
  config.health.quarantine_timeout_s = 0.75;
  config.health.probe_interval_s = 0.75;
  config.health.probe_timeout_s = 0.75;
  config.health.rejoin_probes = 2;
  config.health.hedge_budget_s = 0.5;
  edge::WorkloadConfig wc;
  wc.devices = 1;
  wc.fps_per_device = 1600.0;
  wc.phases = {edge::WorkloadPhase{0.0, 12.0, 12.0}};
  const edge::WorkloadTrace trace(wc, 17);
  const fleet::FleetMetrics m =
      shard::run_sharded_fleet(trace, lib, config, {}, "least-loaded", 42).fleet;
  EXPECT_EQ(shard::metrics_fingerprint(m), "3fbe690268edd6ac");
  EXPECT_EQ(fingerprint(m), "44025565908bb6e6");
  EXPECT_GT(m.hedged, 0);
  EXPECT_EQ(m.faults.degrade_windows, 1);
}

/// Three AdaFlow devices with canaries and detection-driven quarantine;
/// device 1 takes a sustained configuration-upset storm.
TEST(GoldenReplay, UpsetStormFleetFingerprintIsPinned) {
  const core::AcceleratorLibrary lib = core::synthetic_library();
  fleet::FleetConfig config;
  config.devices = fleet::homogeneous_devices(lib, core::RuntimeManagerConfig{}, 3);
  config.health.enabled = true;
  config.integrity.enabled = true;
  config.integrity.canary_interval_s = 0.25;
  config.devices[1].fault_schedule = faults::config_upset_storm(2.0, 14.0, 1.0);
  edge::WorkloadConfig wc;
  wc.devices = 1;
  wc.fps_per_device = 1200.0;
  wc.phases = {edge::WorkloadPhase{0.7, 0.5, 16.0}};
  const edge::WorkloadTrace trace(wc, 7);
  const fleet::FleetMetrics m =
      shard::run_sharded_fleet(trace, lib, config, {}, "least-loaded", 99).fleet;
  EXPECT_EQ(shard::metrics_fingerprint(m), "f43f599f8c2ac5f8");
  EXPECT_EQ(fingerprint(m), "bb7fc99215e2659c");
  EXPECT_GE(m.integrity.detections, 1);
  EXPECT_GE(m.quarantines, 1);
}

/// Two detection-serving devices: the per-frame NMS cost and quality hook
/// attached through FleetDevice::configure.
TEST(GoldenReplay, DetectionFleetFingerprintIsPinned) {
  const core::AcceleratorLibrary lib = detect::detection_library(fpga::zcu104());
  const detect::SceneTrace scene =
      detect::rush_hour_scene(2.0, 9.0, 4.0, 3.0, 5.0, 16.0, 0.5, 0.05, 7);
  detect::DetectionWorkload workload(scene, detect::DetectorModel{}, 1234);
  core::RuntimeManagerConfig manager;
  manager.accuracy_threshold = 0.15;
  fleet::FleetConfig config;
  config.devices = fleet::homogeneous_devices(lib, manager, 2);
  for (fleet::FleetDevice& d : config.devices) {
    d.configure = [&workload](edge::DeviceSim& dev, std::size_t index) {
      workload.attach(dev, index);
    };
  }
  const edge::WorkloadTrace trace = detect::workload_from_scene(scene, 400.0, 240.0);
  const fleet::FleetMetrics m =
      shard::run_sharded_fleet(trace, lib, config, {}, "least-loaded", 42).fleet;
  EXPECT_EQ(shard::metrics_fingerprint(m), "f4a30fcd2e01c7fd");
  EXPECT_EQ(fingerprint(m), "f373a026c6196b01");
  EXPECT_GT(m.detection.frames_scored, 0);
}

bool has_zero_window(const sim::TimeSeries& s) {
  return std::find(s.values.begin(), s.values.end(), 0.0) != s.values.end();
}

/// Leading, middle and trailing zero-rate stretches around bursty load near
/// the synthetic library's capacity, so the runtime manager switches.
edge::WorkloadTrace gapped_trace() {
  return edge::WorkloadTrace({0.0, 0.3, 2.0, 3.5, 5.0, 7.2}, {0.0, 700.0, 0.0, 950.0, 420.0, 0.0},
                             8.0);
}

faults::FaultSpec burst_window(double start_s, double end_s, double factor) {
  faults::FaultSpec f;
  f.kind = faults::FaultKind::kQueueBurst;
  f.start_s = start_s;
  f.end_s = end_s;
  f.magnitude = factor;
  return f;
}

TEST(GoldenReplay, RunSimulationFingerprintIsPinned) {
  const core::AcceleratorLibrary lib = core::synthetic_library();
  faults::FaultSchedule schedule = faults::flaky_edge_schedule(8.0);
  schedule.faults.push_back(burst_window(5.5, 6.5, 1.8));
  faults::FaultInjector injector(schedule, 17);
  auto policy = core::make_serving_policy(core::PolicyKind::kAdaFlow, lib,
                                          core::RuntimeManagerConfig{});
  const edge::RunMetrics m =
      edge::run_simulation(gapped_trace(), *policy, edge::ServerConfig{}, 29, &injector);
  EXPECT_EQ(fingerprint(m), "832da8a3f78dfc87");
  EXPECT_GT(m.model_switches, 0);
  EXPECT_GT(m.faults.burst_windows, 0);
  EXPECT_TRUE(has_zero_window(m.workload_series));
}

TEST(GoldenReplay, RunIntegrityFingerprintIsPinned) {
  const core::AcceleratorLibrary lib = core::synthetic_library();
  integrity::IntegrityRunConfig config;
  config.canary.canary_interval_s = 0.25;
  config.policy.scrub_period_s = 3.0;
  faults::FaultSchedule schedule = faults::config_upset_storm(0.5, 7.5, 1.2);
  schedule.faults.push_back(burst_window(3.6, 4.4, 1.5));
  const edge::RunMetrics m = integrity::run_integrity(
      gapped_trace(),
      core::make_serving_policy(core::PolicyKind::kAdaFlow, lib, core::RuntimeManagerConfig{}),
      lib, config, schedule, 31);
  EXPECT_EQ(fingerprint(m), "a42f619c35278310");
  EXPECT_GT(m.model_switches, 0);
  EXPECT_GT(m.faults.burst_windows, 0);
  EXPECT_GT(m.integrity.upsets_injected, 0);
  EXPECT_GT(m.integrity.canaries_sent, 0);
  EXPECT_TRUE(has_zero_window(m.workload_series));
}

TEST(GoldenReplay, RunDetectionFingerprintIsPinned) {
  const core::AcceleratorLibrary lib = detect::detection_library(fpga::zcu104());
  core::RuntimeManagerConfig manager;
  manager.accuracy_threshold = 0.15;
  core::RuntimeManager policy(lib, manager);
  const detect::SceneTrace scene =
      detect::rush_hour_scene(2.0, 9.0, 4.0, 3.0, 5.0, 16.0, 0.5, 0.05, 7);
  const edge::RunMetrics m = detect::run_detection(scene, policy, 43);
  EXPECT_EQ(fingerprint(m), "eae4affba85c5265");
  EXPECT_GT(m.model_switches, 0);
  EXPECT_GT(m.detection.frames_scored, 0);
}

TEST(GoldenReplay, RunTenantsFingerprintIsPinned) {
  const core::AcceleratorLibrary lib = core::synthetic_library();
  tenant::MultiTenantConfig config;
  config.devices = 3;
  config.duration_s = 5.0;
  config.warmup_s = 0.5;
  tenant::TenantSpec a;
  a.name = "alpha";
  a.weight = 2.0;
  a.admission.rate_fps = 1600.0;
  a.trace = edge::WorkloadTrace({0.0, 1.5, 2.5}, {300.0, 0.0, 1500.0}, 5.0);
  tenant::TenantSpec b;
  b.name = "beta";
  b.admission.rate_fps = 300.0;
  b.trace = edge::WorkloadTrace({0.0, 0.4, 1.2, 2.8, 3.8}, {0.0, 250.0, 0.0, 250.0, 0.0}, 5.0);
  config.tenants = {a, b};
  const tenant::MultiTenantMetrics m = tenant::run_tenants(config, lib, 37);
  EXPECT_EQ(fingerprint(m), "0d58b909ee723811");
  EXPECT_GT(m.version_switches, 0);
  EXPECT_GT(m.tenants[0].usage.offered, 0);
  EXPECT_GT(m.tenants[1].usage.offered, 0);
  EXPECT_TRUE(has_zero_window(m.fleet.workload_series));
}

/// Ten flapping cameras at 2.5x overload of two pinned devices, with a
/// network outage and a decode-fault window: the brownout ladder reaches the
/// downgrade tier, decode pauses on the fleet's backlog, and sessions drop
/// and reconnect.
ingest::IngestConfig golden_ingest(const core::AcceleratorLibrary& lib) {
  ingest::IngestConfig config;
  config.cameras = 10;
  config.duration_s = 8.0;
  config.camera.fps = 250.0;
  config.camera.mean_uptime_s = 6.0;
  config.camera.reconnect_success_p = 0.6;
  config.network.base_delay_s = 0.01;
  config.network.jitter_s = 0.005;
  config.network.loss_p = 0.005;
  config.decode.cost_s = 0.0005;
  config.decode.workers = 4;
  config.brownout.mode = ingest::BrownoutMode::kLadder;
  config.brownout.downgrade_steps = 2;
  config.brownout.tier1_latency_s = 0.06;
  config.brownout.tier2_latency_s = 0.10;
  config.brownout.min_dwell_s = 1.0;
  config.brownout.release_fraction = 0.2;
  faults::FaultSchedule schedule = faults::network_outage_window(2.0, 2.5);
  const faults::FaultSchedule decode = faults::decode_fault_window(4.0, 4.5, 0.5);
  schedule.faults.insert(schedule.faults.end(), decode.faults.begin(), decode.faults.end());
  config.faults = schedule;
  for (int i = 0; i < 2; ++i) {
    config.fleet.devices.push_back(fleet::pinned_device("dev" + std::to_string(i), lib, 0));
  }
  return config;
}

ingest::IngestMetrics run_golden_ingest(const ingest::IngestConfig& config,
                                        const core::AcceleratorLibrary& lib) {
  auto router = fleet::make_router("least-loaded");
  return ingest::run_ingest(config, lib, *router, 41);
}

TEST(GoldenReplay, RunIngestFingerprintIsPinned) {
  const core::AcceleratorLibrary lib = core::synthetic_library();
  const ingest::IngestConfig config = golden_ingest(lib);
  const ingest::IngestMetrics m = run_golden_ingest(config, lib);
  EXPECT_EQ(sim::fingerprint(m), "c58efdb8e3dc223c");
  EXPECT_EQ(fingerprint(m), "3a06df0549fffb0c");
  EXPECT_EQ(m.conservation_error(), 0);
  EXPECT_GT(m.brownout.tier2_engagements, 0);
  EXPECT_GT(m.brownout.time_tier2_s, 0.0);
  EXPECT_GT(m.degraded_delivered, 0);
  EXPECT_GT(m.faults.network_outage_drops, 0);
  EXPECT_GT(m.faults.decode_faults_injected, 0);
  std::int64_t disconnects = 0;
  std::int64_t reconnects = 0;
  for (const ingest::IngestSessionResult& r : m.sessions) {
    disconnects += r.session.disconnects;
    reconnects += r.session.connects - 1;
  }
  EXPECT_GT(disconnects, 0);
  EXPECT_GT(reconnects, 0);
  // Decode backpressure fires: decode pauses at 64 waiting frames, so the
  // 128-frame fleet ingress never overflows. With an ingress too small for
  // the backlog ever to reach 64, nothing pauses decode, and decoded frames
  // are shed at the fleet instead.
  ASSERT_EQ(config.fleet.ingress_capacity, 128);
  EXPECT_EQ(m.fleet_shed, 0);
  ingest::IngestConfig no_backpressure = config;
  no_backpressure.fleet.ingress_capacity = 63;
  const ingest::IngestMetrics unpaused = run_golden_ingest(no_backpressure, lib);
  EXPECT_GT(unpaused.fleet_shed, 0);
  EXPECT_NE(unpaused.decode_started, m.decode_started);
}

bool any_switch(const edge::RunMetrics& m, bool reconfiguration) {
  return std::any_of(m.switches.begin(), m.switches.end(), [&](const edge::SwitchRecord& s) {
    return s.reconfiguration == reconfiguration;
  });
}

/// One single-device run of \p kind on the gapped trace over the synthetic
/// library — the serving policies the runtime-manager pin above leaves out.
edge::RunMetrics run_policy(core::PolicyKind kind, std::uint64_t seed) {
  const core::AcceleratorLibrary lib = core::synthetic_library();
  auto policy = core::make_serving_policy(kind, lib, core::RuntimeManagerConfig{});
  return edge::run_simulation(gapped_trace(), *policy, edge::ServerConfig{}, seed);
}

TEST(GoldenReplay, ReconfPruningRunFingerprintIsPinned) {
  const edge::RunMetrics m = run_policy(core::PolicyKind::kReconfOnly, 47);
  EXPECT_EQ(sim::fingerprint(m), "5abfbeb5b6987bfd");
  EXPECT_EQ(fingerprint(m), "c196145abe764205");
  EXPECT_GT(m.reconfigurations, 0);
  EXPECT_FALSE(any_switch(m, /*reconfiguration=*/false));
}

TEST(GoldenReplay, ProactiveRunFingerprintIsPinned) {
  const edge::RunMetrics m = run_policy(core::PolicyKind::kProactive, 53);
  EXPECT_EQ(sim::fingerprint(m), "6242e0927615be71");
  EXPECT_EQ(fingerprint(m), "1b01faf1184ae19f");
  EXPECT_GT(m.model_switches, 0);
  EXPECT_GT(m.forecast.forecasts, 0);
}

TEST(GoldenReplay, StaticFinnRunFingerprintIsPinned) {
  const edge::RunMetrics m = run_policy(core::PolicyKind::kStaticFinn, 59);
  EXPECT_EQ(sim::fingerprint(m), "c4eb0788981e7880");
  EXPECT_EQ(fingerprint(m), "c4eb0788981e7880");
  EXPECT_GT(m.processed, 0);
  EXPECT_EQ(m.model_switches, 0);
}

TEST(GoldenReplay, OracleRunFingerprintIsPinned) {
  const core::AcceleratorLibrary lib = core::synthetic_library();
  // Rate changes 0.3 s apart make the lookahead pick Flexible, then switch fast.
  const edge::WorkloadTrace trace({0.0, 1.0, 1.3, 1.6, 4.0}, {300.0, 600.0, 900.0, 450.0, 300.0},
                                  6.0);
  core::OraclePolicy policy(lib, core::RuntimeManagerConfig{}, trace);
  const edge::RunMetrics m = edge::run_simulation(trace, policy, edge::ServerConfig{}, 61);
  EXPECT_EQ(sim::fingerprint(m), "b9d3b0968d23a19e");
  EXPECT_EQ(fingerprint(m), "a4531a5a044f4dce");
  EXPECT_TRUE(any_switch(m, /*reconfiguration=*/true));
  EXPECT_TRUE(any_switch(m, /*reconfiguration=*/false));
}

TEST(GoldenReplay, StaticFlexibleDetectionFingerprintIsPinned) {
  const core::AcceleratorLibrary lib = detect::detection_library(fpga::zcu104());
  detect::StaticFlexiblePolicy policy(lib);
  const detect::SceneTrace scene =
      detect::rush_hour_scene(2.0, 9.0, 4.0, 3.0, 5.0, 16.0, 0.5, 0.05, 7);
  const edge::RunMetrics m = detect::run_detection(scene, policy, 67);
  EXPECT_EQ(sim::fingerprint(m), "b569b5aae45915e2");
  EXPECT_EQ(fingerprint(m), "b569b5aae45915e2");
  EXPECT_GT(m.detection.frames_scored, 0);
  EXPECT_EQ(m.model_switches, 0);
}

/// A flaky PR controller under a load spike: the Runtime Manager's
/// reconfigurations fail into its Flexible fallback, and the saturated queue
/// asks it to shed load.
TEST(GoldenReplay, RuntimeManagerStormAndOverloadFingerprintIsPinned) {
  const core::AcceleratorLibrary lib = core::synthetic_library();
  faults::FaultSchedule schedule = faults::reconfig_failure_storm(0.5, 7.5);
  schedule.faults.push_back(burst_window(3.6, 4.6, 2.5));
  faults::FaultInjector injector(schedule, 72);
  core::RuntimeManager policy(lib, core::RuntimeManagerConfig{});
  const edge::RunMetrics m =
      edge::run_simulation(gapped_trace(), policy, edge::ServerConfig{}, 73, &injector);
  EXPECT_EQ(sim::fingerprint(m), "07e73be1596593c2");
  EXPECT_EQ(fingerprint(m), "44c51018e29e1002");
  EXPECT_GT(m.faults.fallbacks, 0);
  EXPECT_GT(m.faults.overload_sheds, 0);
}

}  // namespace
}  // namespace adaflow

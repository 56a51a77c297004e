/// The dispatcher's router input is push-maintained: each DeviceSim notifies
/// its FleetEngine after every write to a router-visible field, and the
/// engine keeps its DeviceStatus vector current from those notifications
/// instead of re-reading every device per dispatch. These tests wrap the real
/// router in a checker that, on every routing call, compares each status
/// with a fresh read of engine.device(i) and the `eligible` flag with the
/// engine's rotation and headroom state — over scenarios that write each
/// router-visible field: health quarantine and probes, duplicate hedging
/// under degrade, crash/hang/stall faults, coordinator repartitions,
/// integrity reloads, Runtime Manager switches with their retry/fallback
/// ladders (hardened and not) and the tenant router.

#include "adaflow/fleet/engine.hpp"

#include "adaflow/core/library.hpp"
#include "adaflow/edge/workload.hpp"
#include "adaflow/faults/fault_injector.hpp"
#include "adaflow/fleet/fleet.hpp"
#include "adaflow/sim/event_queue.hpp"
#include "adaflow/tenant/scheduler.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <sstream>
#include <string>
#include <vector>

namespace adaflow::fleet {
namespace {

/// Delegates to \p inner after checking the router input against the
/// devices. Mismatches are counted and the first one is described, so a
/// missing notification fails one assertion instead of flooding the log.
class CheckingRouter final : public RoutingPolicy {
 public:
  explicit CheckingRouter(RoutingPolicy& inner) : inner_(inner) {}
  void attach(const FleetEngine& engine) { engine_ = &engine; }

  std::string name() const override { return inner_.name(); }
  std::size_t route(double now_s, const std::vector<DeviceStatus>& devices) override {
    check(now_s, devices);
    return inner_.route(now_s, devices);
  }
  std::size_t route_tagged(double now_s, std::int64_t tag,
                           const std::vector<DeviceStatus>& devices) override {
    check(now_s, devices);
    const std::size_t idx = inner_.route_tagged(now_s, tag, devices);
    declines += idx == kDecline ? 1 : 0;
    return idx;
  }

  std::int64_t calls = 0;
  std::int64_t declines = 0;
  std::int64_t mismatches = 0;
  std::string first_mismatch;

 private:
  void mismatch(double now_s, std::size_t i, const std::string& what) {
    if (mismatches++ == 0) {
      std::ostringstream os;
      os << "t=" << now_s << " device " << i << ": " << what;
      first_mismatch = os.str();
    }
  }

  void check(double now_s, const std::vector<DeviceStatus>& devices) {
    ++calls;
    if (devices.size() != engine_->device_count()) {
      mismatch(now_s, 0, "status vector has the wrong size");
      return;
    }
    int barred = 0;
    for (std::size_t i = 0; i < devices.size(); ++i) {
      const DeviceStatus& s = devices[i];
      const edge::DeviceSim& dev = engine_->device(i);
      if (s.queued != dev.queued()) {
        mismatch(now_s, i, "queued " + std::to_string(s.queued) + " vs " +
                               std::to_string(dev.queued()));
      }
      if (s.capacity != dev.queue_capacity()) {
        mismatch(now_s, i, "capacity");
      }
      if (s.busy != dev.processing()) {
        mismatch(now_s, i, "busy");
      }
      if (s.switching != dev.switch_in_flight()) {
        mismatch(now_s, i, "switching");
      }
      if (s.fps != dev.mode().fps || s.accuracy != dev.mode().accuracy) {
        mismatch(now_s, i, "mode");
      }
      if (s.backlog_s != dev.backlog_seconds()) {
        mismatch(now_s, i, "backlog_s");
      }
      const bool open = engine_->in_rotation(i) && dev.free_slots() > 0;
      if (s.eligible && !open) {
        mismatch(now_s, i, "eligible but drained, out of rotation or full");
      }
      barred += (open && !s.eligible) ? 1 : 0;
    }
    // Only the one device a hedge or drain excludes may be open yet barred.
    if (barred > 1) {
      mismatch(now_s, 0, std::to_string(barred) + " open devices marked ineligible");
    }
  }

  RoutingPolicy& inner_;
  const FleetEngine* engine_ = nullptr;
};

struct CheckedRun {
  FleetMetrics metrics;
  std::int64_t declines = 0;
};

/// Drives one FleetEngine over a Poisson arrival stream of \p trace with the
/// checker wrapped around \p inner, and fails on any mismatch. \p tag_of
/// names the n-th frame (anonymous when empty); \p ingress replaces the FIFO;
/// \p setup schedules extra events once the engine has started.
CheckedRun run_checked(const core::AcceleratorLibrary& lib, const FleetConfig& config,
                       RoutingPolicy& inner, const edge::WorkloadTrace& trace, double duration_s,
                       std::uint64_t seed,
                       const std::function<std::int64_t(std::int64_t)>& tag_of = {},
                       IngressQueue* ingress = nullptr,
                       const std::function<void(sim::EventQueue&, FleetEngine&)>& setup = {}) {
  config.validate();
  sim::EventQueue queue;
  CheckingRouter router(inner);
  FleetEngine engine(queue, lib, config, router, seed, duration_s);
  router.attach(engine);
  if (ingress != nullptr) {
    engine.set_ingress_queue(*ingress);
  }
  engine.start();
  if (setup) {
    setup(queue, engine);
  }
  edge::PoissonArrivals arrivals(trace, seed, duration_s);
  std::int64_t n = 0;
  queue.chain([&] { return arrivals.next(); },
              [&] { engine.offer_frame(tag_of ? tag_of(n++) : edge::DeviceSim::kNoTag); });
  queue.run_until(duration_s);
  CheckedRun out{engine.finalize(duration_s), router.declines};
  EXPECT_EQ(router.mismatches, 0) << "first: " << router.first_mismatch;
  EXPECT_GT(router.calls, 0);
  EXPECT_TRUE(conserves_flow(out.metrics));
  return out;
}

edge::WorkloadTrace flat_trace(double rate, double duration_s) {
  edge::WorkloadConfig c;
  c.devices = 1;
  c.fps_per_device = rate;
  c.phases = {edge::WorkloadPhase{0.0, duration_s, duration_s}};
  return edge::WorkloadTrace(c, 3);
}

edge::WorkloadTrace bursty_trace(double rate, double duration_s) {
  edge::WorkloadConfig c;
  c.devices = 1;
  c.fps_per_device = rate;
  c.phases = {edge::WorkloadPhase{0.7, 0.5, duration_s}};
  return edge::WorkloadTrace(c, 7);
}

HealthConfig fast_health(double hedge_budget_s = 0.0, bool duplicate = false) {
  HealthConfig h;
  h.enabled = true;
  h.tick_interval_s = 0.25;
  h.suspect_timeout_s = 0.75;
  h.quarantine_timeout_s = 0.75;
  h.probe_interval_s = 0.75;
  h.probe_timeout_s = 0.75;
  h.rejoin_probes = 2;
  h.hedge_budget_s = hedge_budget_s;
  h.hedge_duplicate = duplicate;
  return h;
}

/// Four pinned version-0 devices behind the coordinator (the chaos bench's
/// fleet at test scale); device 0 carries \p schedule.
FleetConfig pinned_fleet(const core::AcceleratorLibrary& lib,
                         const faults::FaultSchedule& schedule) {
  FleetConfig config;
  for (int i = 0; i < 4; ++i) {
    config.devices.push_back(pinned_device("dev" + std::to_string(i), lib, 0));
  }
  config.devices[0].fault_schedule = schedule;
  config.coordinator.enabled = true;
  config.coordinator.poll_interval_s = 0.25;
  config.coordinator.warmup_s = 0.5;
  config.coordinator.estimate_window_s = 0.5;
  config.coordinator.drain_timeout_s = 0.5;
  config.coordinator.switch_interval_factor = 10.0 / 4.0;
  return config;
}

TEST(StatusConsistency, CrashQuarantineProbeAndRejoin) {
  const core::AcceleratorLibrary lib = core::synthetic_library();
  FleetConfig config = pinned_fleet(lib, faults::device_crash_window(2.0, 5.0));
  config.health = fast_health();
  LeastLoadedRouter inner;
  const CheckedRun r = run_checked(lib, config, inner, flat_trace(1600.0, 12.0), 12.0, 42);
  EXPECT_GE(r.metrics.quarantines, 1);
  EXPECT_GE(r.metrics.rejoins, 1);
  EXPECT_GE(r.metrics.redispatched, 1);
}

TEST(StatusConsistency, CoordinatorRepartitionsUnderBurstyLoad) {
  const core::AcceleratorLibrary lib = core::synthetic_library();
  FleetConfig config = pinned_fleet(lib, faults::flaky_edge_schedule(12.0));
  AccuracyAwareRouter inner;
  const CheckedRun r = run_checked(lib, config, inner, bursty_trace(1600.0, 12.0), 12.0, 5);
  EXPECT_GE(r.metrics.repartitions, 1);
  EXPECT_GE(r.metrics.reconfigurations, 1);
}

TEST(StatusConsistency, DuplicateHedgingUnderDegrade) {
  const core::AcceleratorLibrary lib = core::synthetic_library();
  FleetConfig config =
      pinned_fleet(lib, faults::device_degrade_window(1.0, 9.0, /*latency_factor=*/6.0, 0.2));
  config.health = fast_health(/*hedge_budget_s=*/0.02, /*duplicate=*/true);
  LeastLoadedRouter inner;
  const CheckedRun r = run_checked(lib, config, inner, flat_trace(1500.0, 10.0), 10.0, 7);
  EXPECT_GE(r.metrics.hedged, 1);
}

TEST(StatusConsistency, HangStallsAndPullHedges) {
  const core::AcceleratorLibrary lib = core::synthetic_library();
  FleetConfig config = pinned_fleet(lib, faults::device_hang_window(2.0, 4.0));
  config.devices[1].fault_schedule = faults::flaky_edge_schedule(10.0);
  config.health = fast_health(/*hedge_budget_s=*/0.02);
  RoundRobinRouter inner;
  const CheckedRun r = run_checked(lib, config, inner, flat_trace(1500.0, 10.0), 10.0, 11);
  EXPECT_GE(r.metrics.hedged, 1);
  EXPECT_GE(r.metrics.faults.stalls_injected, 1);
}

TEST(StatusConsistency, ManagedDevicesWithIntegrityReloads) {
  const core::AcceleratorLibrary lib = core::synthetic_library();
  FleetConfig config;
  config.devices = homogeneous_devices(lib, core::RuntimeManagerConfig{}, 3);
  config.devices[1].fault_schedule = faults::config_upset_storm(2.0, 14.0, 1.0);
  config.health.enabled = true;
  config.integrity.enabled = true;
  config.integrity.canary_interval_s = 0.25;
  config.integrity.quarantine_on_detect = true;
  LeastLoadedRouter inner;
  const CheckedRun r = run_checked(lib, config, inner, bursty_trace(1200.0, 16.0), 16.0, 99);
  EXPECT_GE(r.metrics.integrity.repairs, 1);
  EXPECT_GE(r.metrics.quarantines, 1);
  EXPECT_GE(r.metrics.model_switches, 1);
}

/// Three managed devices whose reconfigurations mostly fail and whose
/// frames stall, at a load that often leaves queues empty: the retry,
/// fallback and abandon ladder and the stall watchdog's reload end on idle
/// devices, where no frame write follows to refresh the status.
FleetConfig ladder_fleet(const core::AcceleratorLibrary& lib, bool fault_tolerance) {
  FleetConfig config;
  config.devices = homogeneous_devices(lib, core::RuntimeManagerConfig{}, 3);
  for (FleetDevice& d : config.devices) {
    faults::FaultSchedule schedule = faults::reconfig_failure_storm(0.0, 12.0, 0.7);
    for (const faults::FaultSpec& f : faults::flaky_edge_schedule(12.0).faults) {
      schedule.faults.push_back(f);
    }
    d.fault_schedule = schedule;
    d.server.fault_tolerance = fault_tolerance;
  }
  return config;
}

TEST(StatusConsistency, HardenedSwitchLaddersAtLightLoad) {
  const core::AcceleratorLibrary lib = core::synthetic_library();
  const FleetConfig config = ladder_fleet(lib, /*fault_tolerance=*/true);
  LeastLoadedRouter inner;
  const CheckedRun r = run_checked(lib, config, inner, bursty_trace(900.0, 12.0), 12.0, 21);
  EXPECT_GE(r.metrics.faults.switch_retries, 1);
  EXPECT_GE(r.metrics.faults.switches_abandoned, 1);
  EXPECT_GE(r.metrics.faults.stalls_recovered, 1);
}

TEST(StatusConsistency, UnhardenedSwitchFailuresAtLightLoad) {
  const core::AcceleratorLibrary lib = core::synthetic_library();
  const FleetConfig config = ladder_fleet(lib, /*fault_tolerance=*/false);
  LeastLoadedRouter inner;
  const CheckedRun r = run_checked(lib, config, inner, bursty_trace(900.0, 12.0), 12.0, 22);
  EXPECT_GE(r.metrics.faults.switch_failures, 1);
  EXPECT_GE(r.metrics.model_switches, 2);
}

/// Two pinned devices at a light load; device 0 carries \p schedule. Ties
/// route to device 0, and while it is busy or switching frames go to device
/// 1, so device 0's queue is empty when its own episode ends: no frame write
/// follows to refresh its status.
FleetConfig idle_pair(const core::AcceleratorLibrary& lib, const faults::FaultSchedule& schedule,
                      bool fault_tolerance) {
  FleetConfig config;
  for (int i = 0; i < 2; ++i) {
    config.devices.push_back(pinned_device("dev" + std::to_string(i), lib, 0));
    config.devices.back().server.fault_tolerance = fault_tolerance;
  }
  config.devices[0].fault_schedule = schedule;
  return config;
}

/// Commands device 0 of \p engine to version 1 of \p lib at \p t_s.
void command_at(sim::EventQueue& queue, FleetEngine& engine, const core::AcceleratorLibrary& lib,
                double t_s) {
  queue.schedule_at(t_s, [&engine, &lib] {
    engine.command_device_switch(0, core::switch_to(lib, 1, hls::AcceleratorVariant::kFixed,
                                                    hls::AcceleratorVariant::kFixed));
  });
}

TEST(StatusConsistency, StallReloadEndsOnAnEmptyQueue) {
  const core::AcceleratorLibrary lib = core::synthetic_library();
  faults::FaultSchedule stalls;
  stalls.faults.push_back(faults::FaultSpec{faults::FaultKind::kAcceleratorStall, 1.0, 3.0,
                                            /*probability=*/1.0, /*magnitude=*/0.5});
  LeastLoadedRouter inner;
  const CheckedRun r = run_checked(lib, idle_pair(lib, stalls, /*fault_tolerance=*/true), inner,
                                   flat_trace(40.0, 4.0), 4.0, 13);
  EXPECT_GE(r.metrics.faults.stalls_recovered, 1);
}

TEST(StatusConsistency, CrashWhileASwitchWaitsForTheInFlightFrame) {
  const core::AcceleratorLibrary lib = core::synthetic_library();
  // A 1000x slowdown stretches device 0's frames to seconds: the switch
  // commanded at t=1 waits for the frame in flight, and the crash at t=1.2
  // abandons it.
  faults::FaultSchedule schedule = faults::device_degrade_window(0.5, 3.0, 1000.0);
  schedule.faults.push_back(faults::device_crash_window(1.2, 2.0).faults.front());
  bool pending_before_crash = false;
  bool resolved_by_crash = false;
  LeastLoadedRouter inner;
  run_checked(lib, idle_pair(lib, schedule, /*fault_tolerance=*/true), inner,
              flat_trace(40.0, 4.0), 4.0, 17, {}, nullptr,
              [&](sim::EventQueue& queue, FleetEngine& engine) {
                command_at(queue, engine, lib, 1.0);
                queue.schedule_at(1.1, [&] {
                  const edge::DeviceSim& dev = engine.device(0);
                  pending_before_crash = dev.processing() && dev.switch_in_flight();
                });
                queue.schedule_at(1.3, [&] {
                  resolved_by_crash = !engine.device(0).switch_in_flight();
                });
              });
  EXPECT_TRUE(pending_before_crash);
  EXPECT_TRUE(resolved_by_crash);
}

TEST(StatusConsistency, UnhardenedFailedSwitchEndsOnAnEmptyQueue) {
  const core::AcceleratorLibrary lib = core::synthetic_library();
  LeastLoadedRouter inner;
  const CheckedRun r = run_checked(
      lib, idle_pair(lib, faults::reconfig_failure_storm(0.0, 4.0, 1.0), /*fault_tolerance=*/false),
      inner, flat_trace(40.0, 4.0), 4.0, 19, {}, nullptr,
      [&](sim::EventQueue& queue, FleetEngine& engine) { command_at(queue, engine, lib, 1.0); });
  EXPECT_EQ(r.metrics.faults.switch_failures, 1);
}

TEST(StatusConsistency, TenantRouterWithWeightedFairIngress) {
  const core::AcceleratorLibrary lib = core::synthetic_library();
  FleetConfig config;
  for (int i = 0; i < 4; ++i) {
    FleetDevice d = pinned_device("dev" + std::to_string(i), lib, 0);
    d.coordinated = false;
    config.devices.push_back(std::move(d));
  }
  config.health = fast_health();
  // A hard partition (no borrowing): tenant 0 owns devices 0-1 and brings
  // three quarters of the traffic, so its frames are declined and wait while
  // tenant 1's devices have headroom.
  tenant::TenantRouter inner(/*tenant_count=*/2, /*device_count=*/4, /*allow_borrow=*/false);
  inner.assign(0, 0);
  inner.assign(1, 0);
  inner.assign(2, 1);
  inner.assign(3, 1);
  tenant::WfqIngress ingress({{1.0, 64}, {1.0, 64}});
  const auto tag_of = [](std::int64_t n) { return tenant::make_tag(n % 4 == 3 ? 1 : 0, n); };
  const CheckedRun r =
      run_checked(lib, config, inner, flat_trace(1400.0, 8.0), 8.0, 3, tag_of, &ingress);
  EXPECT_GE(r.declines, 1);
}

}  // namespace
}  // namespace adaflow::fleet

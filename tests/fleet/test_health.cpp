#include "adaflow/fleet/health.hpp"

#include "adaflow/common/error.hpp"

#include <gtest/gtest.h>

#include <string>

namespace adaflow::fleet {
namespace {

HealthConfig fast_config() {
  HealthConfig c;
  c.enabled = true;
  c.tick_interval_s = 0.25;
  c.suspect_timeout_s = 0.5;
  c.quarantine_timeout_s = 0.5;
  c.probe_interval_s = 0.5;
  c.probe_timeout_s = 0.5;
  c.rejoin_probes = 2;
  return c;
}

HealthMonitor::Observation busy(std::int64_t processed, double fps = 100.0) {
  HealthMonitor::Observation o;
  o.processed = processed;
  o.has_work = true;
  o.nominal_fps = fps;
  return o;
}

HealthMonitor::Observation idle(std::int64_t processed) {
  HealthMonitor::Observation o;
  o.processed = processed;
  o.has_work = false;
  return o;
}

// --- configuration validation (each error names its field) -----------------

TEST(HealthConfig, ValidationNamesTheOffendingField) {
  const struct {
    void (*mutate)(HealthConfig&);
    const char* field;
  } cases[] = {
      {[](HealthConfig& c) { c.tick_interval_s = 0.0; }, "tick_interval_s"},
      {[](HealthConfig& c) { c.suspect_timeout_s = -1.0; }, "suspect_timeout_s"},
      {[](HealthConfig& c) { c.quarantine_timeout_s = -0.5; }, "quarantine_timeout_s"},
      {[](HealthConfig& c) { c.probe_interval_s = 0.0; }, "probe_interval_s"},
      {[](HealthConfig& c) { c.probe_timeout_s = -2.0; }, "probe_timeout_s"},
      {[](HealthConfig& c) { c.rejoin_probes = 0; }, "rejoin_probes"},
      {[](HealthConfig& c) { c.hedge_budget_s = -0.1; }, "hedge_budget_s"},
  };
  for (const auto& c : cases) {
    HealthConfig config = fast_config();
    c.mutate(config);
    try {
      config.validate();
      FAIL() << "expected ConfigError for " << c.field;
    } catch (const ConfigError& e) {
      EXPECT_NE(std::string(e.what()).find(c.field), std::string::npos)
          << "message '" << e.what() << "' does not name " << c.field;
    }
  }
  EXPECT_NO_THROW(fast_config().validate());
}

// --- circuit-breaker transitions -------------------------------------------

TEST(HealthMonitor, StalledDeviceEscalatesToQuarantine) {
  HealthMonitor m(fast_config(), 1);
  // Work waiting, nothing completing: healthy -> suspect after 0.5 s,
  // quarantined 0.5 s later.
  double t = 0.0;
  HealthAction last;
  for (int tick = 0; tick <= 6; ++tick, t += 0.25) {
    last = m.observe(0, t, busy(0));
    if (last.quarantine) {
      break;
    }
  }
  EXPECT_TRUE(last.quarantine);
  EXPECT_EQ(m.state(0), HealthState::kQuarantined);
  EXPECT_TRUE(m.out_of_rotation(0));
  EXPECT_EQ(m.quarantines(0), 1);
  EXPECT_LE(t, 1.51);  // suspect at 0.5, quarantined by ~1.25
}

TEST(HealthMonitor, IdleDeviceIsNeverAccused) {
  HealthMonitor m(fast_config(), 1);
  for (double t = 0.0; t < 10.0; t += 0.25) {
    const HealthAction a = m.observe(0, t, idle(0));
    EXPECT_FALSE(a.quarantine);
  }
  EXPECT_EQ(m.state(0), HealthState::kHealthy);
}

TEST(HealthMonitor, MaintenanceFreezesTheStallClock) {
  HealthMonitor m(fast_config(), 1);
  // A coordinator drain/reconfigure blocks completions for seconds; that is
  // expected downtime, not sickness.
  for (double t = 0.0; t < 5.0; t += 0.25) {
    HealthMonitor::Observation o = busy(0);
    o.in_maintenance = true;
    const HealthAction a = m.observe(0, t, o);
    EXPECT_FALSE(a.quarantine);
  }
  EXPECT_EQ(m.state(0), HealthState::kHealthy);
}

TEST(HealthMonitor, ProgressResetsASuspect) {
  HealthMonitor m(fast_config(), 1);
  m.observe(0, 0.0, busy(0));
  m.observe(0, 0.75, busy(0));  // stalled past 0.5 s -> suspect
  EXPECT_EQ(m.state(0), HealthState::kSuspect);
  m.observe(0, 1.0, busy(60));  // completions resumed at a healthy rate
  EXPECT_EQ(m.state(0), HealthState::kHealthy);
  EXPECT_EQ(m.quarantines(0), 0);
}

TEST(HealthMonitor, DegradedServiceRateIsDetectedWithoutAFullStall) {
  HealthConfig config = fast_config();
  config.suspect_timeout_s = 100.0;  // disable the stall path; rate check only
  HealthMonitor m(config, 1);
  // Nominal 100 FPS, observing ~8 completions/s over continuously busy
  // ticks: far below 100/3, so the rate check must trip.
  std::int64_t processed = 0;
  bool quarantined = false;
  for (double t = 0.0; t < 5.0 && !quarantined; t += 0.25) {
    quarantined = m.observe(0, t, busy(processed)).quarantine;
    processed += 2;  // 8 FPS
  }
  EXPECT_TRUE(quarantined);
}

TEST(HealthMonitor, HealthyServiceRatePassesTheRateCheck) {
  HealthConfig config = fast_config();
  config.suspect_timeout_s = 100.0;
  HealthMonitor m(config, 1);
  std::int64_t processed = 0;
  for (double t = 0.0; t < 5.0; t += 0.25) {
    EXPECT_FALSE(m.observe(0, t, busy(processed)).quarantine);
    processed += 25;  // 100 FPS == nominal
  }
  EXPECT_EQ(m.state(0), HealthState::kHealthy);
}

// --- half-open probing ------------------------------------------------------

/// Drives a fresh monitor into quarantine; returns the time just after the
/// quarantine tick.
double drive_to_quarantine(HealthMonitor& m) {
  double t = 0.0;
  while (!m.observe(0, t, busy(0)).quarantine) {
    t += 0.25;
  }
  return t + 0.25;
}

TEST(HealthMonitor, ProbeSuccessesRejoinTheDevice) {
  HealthMonitor m(fast_config(), 1);
  double t = drive_to_quarantine(m);

  // Quarantined: after probe_interval the monitor asks for a probe.
  HealthAction a;
  while (!(a = m.observe(0, t, busy(0))).want_probe) {
    t += 0.25;
  }
  EXPECT_EQ(m.state(0), HealthState::kProbing);
  m.on_probe_dispatched(0, t, /*processed_at_dispatch=*/0);

  // First probe completes -> one success, wants the next probe.
  t += 0.25;
  a = m.observe(0, t, busy(1));
  EXPECT_TRUE(a.want_probe);
  EXPECT_FALSE(a.rejoin);
  m.on_probe_dispatched(0, t, 1);

  // Second probe completes -> rejoin.
  t += 0.25;
  a = m.observe(0, t, busy(2));
  EXPECT_TRUE(a.rejoin);
  EXPECT_EQ(m.state(0), HealthState::kHealthy);
  EXPECT_FALSE(m.out_of_rotation(0));
  EXPECT_EQ(m.rejoins(0), 1);
}

TEST(HealthMonitor, ProbeTimeoutFallsBackToQuarantineAndReclaimsTheFrame) {
  HealthMonitor m(fast_config(), 1);
  double t = drive_to_quarantine(m);
  HealthAction a;
  while (!(a = m.observe(0, t, busy(0))).want_probe) {
    t += 0.25;
  }
  m.on_probe_dispatched(0, t, 0);

  // The probe never completes: after probe_timeout the device drops back to
  // quarantined and the dispatcher is told to reclaim the swallowed frame.
  bool failed = false;
  for (int tick = 0; tick < 4 && !failed; ++tick) {
    t += 0.25;
    failed = m.observe(0, t, busy(0)).probe_failed;
  }
  EXPECT_TRUE(failed);
  EXPECT_EQ(m.state(0), HealthState::kQuarantined);
  EXPECT_EQ(m.rejoins(0), 0);
}

TEST(HealthMonitor, UnsentProbeNeverTimesOut) {
  HealthMonitor m(fast_config(), 1);
  double t = drive_to_quarantine(m);
  HealthAction a;
  while (!(a = m.observe(0, t, busy(0))).want_probe) {
    t += 0.25;
  }
  // Zero-traffic fleet: no frame ever arrives to serve as the probe. The
  // monitor must keep asking instead of failing probes it never sent.
  for (int tick = 0; tick < 20; ++tick) {
    t += 0.25;
    a = m.observe(0, t, busy(0));
    EXPECT_TRUE(a.want_probe);
    EXPECT_FALSE(a.probe_failed);
  }
  EXPECT_EQ(m.state(0), HealthState::kProbing);
}

TEST(HealthMonitor, DevicesAreTrackedIndependently) {
  HealthMonitor m(fast_config(), 2);
  std::int64_t processed1 = 0;
  for (double t = 0.0; t < 3.0; t += 0.25) {
    m.observe(0, t, busy(0));  // device 0 wedged
    m.observe(1, t, busy(processed1 += 25));
  }
  EXPECT_TRUE(m.out_of_rotation(0));
  EXPECT_EQ(m.state(1), HealthState::kHealthy);
}

}  // namespace
}  // namespace adaflow::fleet

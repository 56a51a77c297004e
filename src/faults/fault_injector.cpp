#include "adaflow/faults/fault_injector.hpp"

#include <cmath>

#include "adaflow/common/error.hpp"

namespace adaflow::faults {

const char* fault_kind_name(FaultKind kind) {
  switch (kind) {
    case FaultKind::kReconfigFailure:
      return "reconfig-failure";
    case FaultKind::kReconfigSlowdown:
      return "reconfig-slowdown";
    case FaultKind::kMonitorDropout:
      return "monitor-dropout";
    case FaultKind::kMonitorNoise:
      return "monitor-noise";
    case FaultKind::kAcceleratorStall:
      return "accelerator-stall";
    case FaultKind::kQueueBurst:
      return "queue-burst";
    case FaultKind::kDeviceCrash:
      return "device-crash";
    case FaultKind::kDeviceHang:
      return "device-hang";
    case FaultKind::kDeviceDegrade:
      return "device-degrade";
    case FaultKind::kNetworkOutage:
      return "network-outage";
    case FaultKind::kDecodeFault:
      return "decode-fault";
    case FaultKind::kConfigUpset:
      return "config-upset";
  }
  return "unknown";
}

namespace {
bool is_device_fault(FaultKind kind) {
  return kind == FaultKind::kDeviceCrash || kind == FaultKind::kDeviceHang ||
         kind == FaultKind::kDeviceDegrade;
}
}  // namespace

void FaultSchedule::validate() const {
  for (std::size_t i = 0; i < faults.size(); ++i) {
    const FaultSpec& f = faults[i];
    const std::string where = "fault schedule entry " + std::to_string(i) + " (" +
                              fault_kind_name(f.kind) + "): ";
    require(std::isfinite(f.start_s) && f.start_s >= 0.0, where + "start_s must be finite >= 0");
    require(std::isfinite(f.end_s) && f.end_s >= f.start_s,
            where + "end_s must be finite >= start_s");
    require(std::isfinite(f.probability) && f.probability >= 0.0 && f.probability <= 1.0,
            where + "probability must be in [0, 1]");
    require(std::isfinite(f.magnitude) && f.magnitude >= 0.0,
            where + "magnitude must be finite >= 0");
    require(std::isfinite(f.accuracy_penalty) && f.accuracy_penalty >= 0.0 &&
                f.accuracy_penalty <= 1.0,
            where + "accuracy_penalty must be in [0, 1]");
    if (f.kind == FaultKind::kDeviceDegrade) {
      require(f.magnitude >= 1.0,
              where + "magnitude is the service-time multiplier and must be >= 1");
    }
    if (f.kind == FaultKind::kConfigUpset) {
      require(std::isfinite(f.flexible_cross_section) && f.flexible_cross_section >= 0.0 &&
                  f.flexible_cross_section <= 1.0,
              where + "flexible_cross_section must be in [0, 1]");
      require(f.accuracy_penalty > 0.0,
              where + "accuracy_penalty must be positive (an upset must corrupt something)");
    }
  }
}

FaultSchedule reconfig_failure_storm(double start_s, double end_s, double probability,
                                     double slowdown) {
  FaultSchedule s;
  s.faults.push_back(FaultSpec{FaultKind::kReconfigFailure, start_s, end_s, probability, 1.0});
  s.faults.push_back(FaultSpec{FaultKind::kReconfigSlowdown, start_s, end_s, 0.5, slowdown});
  return s;
}

FaultSchedule flaky_edge_schedule(double duration_s) {
  FaultSchedule s;
  s.faults.push_back(FaultSpec{FaultKind::kMonitorNoise, 0.0, duration_s, 0.3, 0.4});
  s.faults.push_back(FaultSpec{FaultKind::kMonitorDropout, 0.0, duration_s, 0.1, 1.0});
  s.faults.push_back(
      FaultSpec{FaultKind::kAcceleratorStall, 0.25 * duration_s, 0.5 * duration_s, 0.002, 1.5});
  s.faults.push_back(
      FaultSpec{FaultKind::kQueueBurst, 0.6 * duration_s, 0.7 * duration_s, 1.0, 1.8});
  return s;
}

FaultSchedule device_crash_window(double crash_s, double recovery_s) {
  FaultSchedule s;
  s.faults.push_back(FaultSpec{FaultKind::kDeviceCrash, crash_s, recovery_s, 1.0, 1.0, 0.0});
  return s;
}

FaultSchedule device_hang_window(double hang_s, double release_s) {
  FaultSchedule s;
  s.faults.push_back(FaultSpec{FaultKind::kDeviceHang, hang_s, release_s, 1.0, 1.0, 0.0});
  return s;
}

FaultSchedule device_degrade_window(double start_s, double end_s, double latency_factor,
                                    double accuracy_penalty) {
  FaultSchedule s;
  s.faults.push_back(FaultSpec{FaultKind::kDeviceDegrade, start_s, end_s, 1.0, latency_factor,
                               accuracy_penalty});
  return s;
}

FaultSchedule network_outage_window(double start_s, double end_s, double probability) {
  FaultSchedule s;
  s.faults.push_back(FaultSpec{FaultKind::kNetworkOutage, start_s, end_s, probability, 1.0, 0.0});
  return s;
}

FaultSchedule decode_fault_window(double start_s, double end_s, double probability) {
  FaultSchedule s;
  s.faults.push_back(FaultSpec{FaultKind::kDecodeFault, start_s, end_s, probability, 1.0, 0.0});
  return s;
}

FaultSchedule config_upset_storm(double start_s, double end_s, double upsets_per_s,
                                 double accuracy_penalty, double flexible_cross_section) {
  FaultSchedule s;
  FaultSpec spec;
  spec.kind = FaultKind::kConfigUpset;
  spec.start_s = start_s;
  spec.end_s = end_s;
  spec.probability = 1.0;
  spec.magnitude = upsets_per_s;
  spec.accuracy_penalty = accuracy_penalty;
  spec.flexible_cross_section = flexible_cross_section;
  s.faults.push_back(spec);
  return s;
}

FaultInjector::FaultInjector(FaultSchedule schedule, std::uint64_t seed)
    : schedule_(std::move(schedule)), rng_(seed) {
  schedule_.validate();
  burst_counted_.assign(schedule_.faults.size(), 0);
  // Whole-device windows and config upsets are resolved up front (in schedule
  // order: one Bernoulli draw per window, one Poisson arrival stream per
  // upset spec) so the outcome depends only on (schedule, seed) and the
  // device can pre-schedule its events. Schedules without these kinds consume
  // no draws here, so their replay is unchanged.
  for (const FaultSpec& f : schedule_.faults) {
    if (f.kind == FaultKind::kConfigUpset) {
      if (f.end_s <= f.start_s || f.magnitude <= 0.0) {
        continue;
      }
      double t = f.start_s + rng_.exponential(f.magnitude);
      while (t < f.end_s) {
        // The thinning draw runs per arrival regardless of outcome, so the
        // stream of consumed randomness depends only on (schedule, seed).
        if (draw(f)) {
          upset_events_.push_back(
              ConfigUpsetEvent{t, f.accuracy_penalty, f.flexible_cross_section});
          ++injected_[static_cast<int>(f.kind)];
        }
        t += rng_.exponential(f.magnitude);
      }
      continue;
    }
    if (!is_device_fault(f.kind) || f.end_s <= f.start_s || !draw(f)) {
      continue;
    }
    DeviceFaultWindow w;
    w.kind = f.kind;
    w.start_s = f.start_s;
    w.end_s = f.end_s;
    if (f.kind == FaultKind::kDeviceDegrade) {
      w.latency_factor = f.magnitude;
      w.accuracy_penalty = f.accuracy_penalty;
    }
    device_windows_.push_back(w);
    ++injected_[static_cast<int>(f.kind)];
  }
}

bool FaultInjector::draw(const FaultSpec& spec) {
  if (spec.probability >= 1.0) {
    return true;
  }
  if (spec.probability <= 0.0) {
    return false;
  }
  return rng_.bernoulli(spec.probability);
}

FaultInjector::SwitchOutcome FaultInjector::on_switch_attempt(double now_s,
                                                              bool is_reconfiguration) {
  SwitchOutcome out;
  if (!is_reconfiguration) {
    return out;  // the Flexible fast switch has no bitstream to corrupt
  }
  for (const FaultSpec& f : schedule_.faults) {
    if (now_s < f.start_s || now_s >= f.end_s) {
      continue;
    }
    if (f.kind == FaultKind::kReconfigFailure && !out.fail && draw(f)) {
      out.fail = true;
      ++injected_[static_cast<int>(f.kind)];
    } else if (f.kind == FaultKind::kReconfigSlowdown && draw(f)) {
      out.time_factor *= f.magnitude;
      ++injected_[static_cast<int>(f.kind)];
    }
  }
  return out;
}

FaultInjector::PollOutcome FaultInjector::on_rate_poll(double now_s) {
  PollOutcome out;
  for (const FaultSpec& f : schedule_.faults) {
    if (now_s < f.start_s || now_s >= f.end_s) {
      continue;
    }
    if (f.kind == FaultKind::kMonitorDropout && !out.dropout && draw(f)) {
      out.dropout = true;
      ++injected_[static_cast<int>(f.kind)];
    } else if (f.kind == FaultKind::kMonitorNoise && draw(f)) {
      out.noise_factor *= 1.0 + rng_.uniform(-f.magnitude, f.magnitude);
      ++injected_[static_cast<int>(f.kind)];
    }
  }
  return out;
}

double FaultInjector::stall_seconds(double now_s) {
  double stall = 0.0;
  for (const FaultSpec& f : schedule_.faults) {
    if (f.kind != FaultKind::kAcceleratorStall || now_s < f.start_s || now_s >= f.end_s) {
      continue;
    }
    if (draw(f)) {
      stall += f.magnitude;
      ++injected_[static_cast<int>(f.kind)];
    }
  }
  return stall;
}

double FaultInjector::arrival_rate_factor(double now_s) {
  double factor = 1.0;
  for (std::size_t i = 0; i < schedule_.faults.size(); ++i) {
    const FaultSpec& f = schedule_.faults[i];
    if (f.kind != FaultKind::kQueueBurst || now_s < f.start_s || now_s >= f.end_s) {
      continue;
    }
    factor *= f.magnitude;
    if (!burst_counted_[i]) {
      burst_counted_[i] = 1;
      ++injected_[static_cast<int>(f.kind)];
    }
  }
  return factor;
}

bool FaultInjector::network_drop(double now_s) {
  bool dropped = false;
  for (const FaultSpec& f : schedule_.faults) {
    if (f.kind != FaultKind::kNetworkOutage || now_s < f.start_s || now_s >= f.end_s) {
      continue;
    }
    if (!dropped && draw(f)) {
      dropped = true;
      ++injected_[static_cast<int>(f.kind)];
    }
  }
  return dropped;
}

bool FaultInjector::decode_fault(double now_s) {
  bool failed = false;
  for (const FaultSpec& f : schedule_.faults) {
    if (f.kind != FaultKind::kDecodeFault || now_s < f.start_s || now_s >= f.end_s) {
      continue;
    }
    if (!failed && draw(f)) {
      failed = true;
      ++injected_[static_cast<int>(f.kind)];
    }
  }
  return failed;
}

int FaultInjector::injected(FaultKind kind) const { return injected_[static_cast<int>(kind)]; }

}  // namespace adaflow::faults

#pragma once

/// \file server_types.hpp
/// Configuration and result types shared by the single-server simulation
/// (server.hpp), the per-device simulation core (device_sim.hpp), and the
/// fleet layer (src/fleet). Split out so a device can be embedded without
/// pulling in the workload model.

#include <cstdint>
#include <string>
#include <tuple>
#include <type_traits>
#include <vector>

#include "adaflow/sim/fields.hpp"
#include "adaflow/sim/stats.hpp"

namespace adaflow::edge {

struct ServerConfig {
  std::int64_t queue_capacity = 72;
  double poll_interval_s = 0.1;      ///< monitor cadence
  double sample_interval_s = 0.5;    ///< time-series sampling cadence
  /// Self-healing: supervised switches with bounded retries and a policy
  /// fallback, the stall watchdog and overload shedding (DeviceSim holds
  /// their timings). Off is the unhardened baseline.
  bool fault_tolerance = true;

  /// Throws ConfigError naming the field (prefixed by \p who) unless
  /// queue_capacity > 0 and both cadences are finite and > 0 — a zero poll
  /// interval would reschedule the monitor at the same instant forever.
  void validate(const std::string& who = "ServerConfig") const;
};

/// One applied mode switch (for Figure 6's annotation track).
struct SwitchRecord {
  double time_s = 0.0;
  std::string model_version;
  std::string accelerator;
  bool reconfiguration = false;
};

constexpr auto field_table(std::type_identity<SwitchRecord>) {
  using S = SwitchRecord;
  return std::tuple{
      sim::first("time_s", &S::time_s), sim::first("model_version", &S::model_version),
      sim::first("accelerator", &S::accelerator),
      sim::first("reconfiguration", &S::reconfiguration),
  };
}

struct RunMetrics {
  std::int64_t arrived = 0;
  std::int64_t processed = 0;
  std::int64_t lost = 0;
  double qoe_accuracy_sum = 0.0;  ///< sum of model accuracy over processed frames
  double energy_j = 0.0;
  double duration_s = 0.0;
  double switch_stall_s = 0.0;    ///< time the server sat blocked in switches
  double violation_s = 0.0;       ///< time the queue ran at >= half capacity
  int model_switches = 0;
  int reconfigurations = 0;
  std::vector<SwitchRecord> switches;

  sim::FaultStats faults;        ///< robustness observability (zero without injector)
  sim::ForecastStats forecast;   ///< forecast quality (zero for reactive policies)
  /// Silent-corruption observability: upsets landed, silently-wrong frames
  /// delivered (charged against QoE — delivered != correct), canary tax,
  /// detector verdicts, repair traffic (zero without kConfigUpset faults or
  /// an integrity layer).
  sim::IntegrityStats integrity;

  /// Detection observability: NMS/matching counters and mAP-proxy sums filled
  /// by the detection workload's service model (all-zero on classification
  /// runs). On detection runs qoe() is the detection QoE: mean per-frame mAP
  /// proxy x processed-frame fraction.
  sim::DetectionStats detection;

  /// True end-to-end capture->result latency of delivered frames (filled only
  /// by drivers that tag frames, i.e. the ingest pipeline; empty otherwise).
  sim::LatencyHistogram e2e_latency;

  sim::TimeSeries workload_series;  ///< incoming FPS per sample window
  sim::TimeSeries loss_series;      ///< frame-loss fraction per window
  sim::TimeSeries qoe_series;       ///< QoE per window
  sim::TimeSeries power_series;     ///< average watts per window

  /// Forecast-vs-actual FPS per monitor window (predictive policies only;
  /// aligned index-wise, see forecast::ForecastTracker).
  sim::TimeSeries forecast_actual_series;
  sim::TimeSeries forecast_pred_series;

  double frame_loss() const {
    return arrived > 0 ? static_cast<double>(lost) / static_cast<double>(arrived) : 0.0;
  }
  /// QoE = accuracy x fraction of processed frames (paper Section V).
  double qoe() const {
    return arrived > 0 ? qoe_accuracy_sum / static_cast<double>(arrived) : 0.0;
  }
  double average_power_w() const { return duration_s > 0 ? energy_j / duration_s : 0.0; }
  /// Processed inferences per watt-second (per joule).
  double power_efficiency() const { return energy_j > 0 ? processed / energy_j : 0.0; }
};

/// RunMetrics' folds (sim/fields.hpp).
constexpr auto field_table(std::type_identity<RunMetrics>) {
  using S = RunMetrics;
  return std::tuple{
      sim::sum("arrived", &S::arrived), sim::sum("processed", &S::processed),
      sim::sum("lost", &S::lost), sim::sum("qoe_accuracy_sum", &S::qoe_accuracy_sum),
      sim::sum("energy_j", &S::energy_j),
      sim::max("duration_s", &S::duration_s),
      sim::sum("switch_stall_s", &S::switch_stall_s), sim::sum("violation_s", &S::violation_s),
      sim::sum("model_switches", &S::model_switches),
      sim::sum("reconfigurations", &S::reconfigurations),
      sim::concat("switches", &S::switches),
      sim::sum("faults", &S::faults), sim::sum("forecast", &S::forecast),
      sim::sum("integrity", &S::integrity), sim::sum("detection", &S::detection),
      sim::histogram("e2e_latency", &S::e2e_latency),
      sim::sum_series("workload_series", &S::workload_series),
      sim::weighted_series("loss_series", &S::loss_series),
      sim::weighted_series("qoe_series", &S::qoe_series),
      sim::sum_series("power_series", &S::power_series),
      sim::sum_series("forecast_actual_series", &S::forecast_actual_series),
      sim::sum_series("forecast_pred_series", &S::forecast_pred_series),
  };
}

}  // namespace adaflow::edge

#pragma once

/// \file fleet.hpp
/// Multi-FPGA cluster serving simulation: N heterogeneous devices — each an
/// edge::DeviceSim with its own serving policy, power profile, and optional
/// fault injector — behind a dispatcher with a bounded ingress queue and a
/// pluggable RoutingPolicy. This is the scale-out layer above the paper's
/// single Edge server: the same camera traffic, but drained by a cluster.
///
/// Ingress semantics: an arriving frame is routed immediately when any
/// device is accepting and has queue headroom; otherwise it waits in the
/// bounded ingress queue (re-dispatched the moment headroom appears) and is
/// lost only when that queue is also full.
///
/// The optional fleet coordinator generalizes the paper's switch-interval
/// rule from one device to the cluster: as the aggregate incoming FPS
/// shifts, it re-partitions the library across the coordinated devices by
/// drain-and-reconfigure — one device at a time is taken out of rotation,
/// its queue drains into the rest of the fleet via the router, the Fixed
/// accelerator is reconfigured to the version matching the new per-device
/// demand share, and the device rejoins. The cluster never loses more than
/// one device's capacity to a reconfiguration.
///
/// This header holds the run's configuration, its metrics and the
/// device-slot helpers. FleetEngine (engine.hpp) is the simulation core, and
/// shard::run_sharded_fleet the one entry point that runs a FleetConfig over
/// a workload trace (ShardConfig{} for a single dispatcher).

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <type_traits>
#include <vector>

#include "adaflow/core/library.hpp"
#include "adaflow/core/runtime_manager.hpp"
#include "adaflow/edge/server_types.hpp"
#include "adaflow/edge/workload.hpp"
#include "adaflow/faults/fault_injector.hpp"
#include "adaflow/fleet/health.hpp"
#include "adaflow/fleet/routing.hpp"
#include "adaflow/integrity/manager.hpp"
#include "adaflow/sim/fields.hpp"
#include "adaflow/sim/stats.hpp"

namespace adaflow::edge {
class DeviceSim;
}

namespace adaflow::fleet {

/// One device slot of the fleet. The policy factory runs once per run;
/// everything it captures (libraries, configs) must outlive the run.
struct FleetDevice {
  std::string name;
  std::function<std::unique_ptr<edge::ServingPolicy>()> make_policy;
  edge::ServerConfig server;
  /// Device-local fault schedule; the injector is seeded from the fleet seed
  /// and the device index, so runs replay bit-identically.
  std::optional<faults::FaultSchedule> fault_schedule;
  /// The coordinator may drain-and-reconfigure this device. Coordinated
  /// devices should use a PinnedPolicy (see pinned_device) so the local
  /// policy does not fight the cluster-level decisions.
  bool coordinated = false;
  /// Library the coordinator uses to pick this device's versions (and that
  /// pinned_device serves from); null means the fleet's default library
  /// (the one passed to FleetEngine). Heterogeneous fleets point
  /// this at per-device scaled copies (core::scale_library_fps).
  const core::AcceleratorLibrary* library = nullptr;
  /// Optional per-device hook run once right after the DeviceSim is built
  /// (before any traffic), with the device and its index. Workload layers
  /// use it to install service models — e.g. detect::DetectionWorkload
  /// attaches its per-frame NMS cost + quality hook here. Must be
  /// deterministic in (device, index) for bit-identical replay.
  std::function<void(edge::DeviceSim&, std::size_t)> configure;
};

/// Fleet-level adaptation knobs (the cluster generalization of the paper's
/// Runtime Manager rule-based criteria).
struct FleetCoordinatorConfig {
  bool enabled = false;
  double poll_interval_s = 0.5;
  double estimate_window_s = 1.0;  ///< aggregate ingress-rate window
  double warmup_s = 1.0;           ///< no repartitions before the estimate fills
  /// Consecutive repartitions are spaced by factor x the device's
  /// reconfiguration time — the paper's switch-interval rule applied
  /// cluster-wide (at most one device is ever out of rotation).
  double switch_interval_factor = 10.0;
  /// A draining device is reconfigured even if its queue has not emptied
  /// after this long (frames then wait through the switch).
  double drain_timeout_s = 1.0;
  double accuracy_threshold = 0.10;
};

struct FleetConfig {
  std::vector<FleetDevice> devices;
  /// Frames that find every device queue full wait here; beyond this the
  /// fleet sheds them (ingress_lost).
  std::int64_t ingress_capacity = 128;
  /// Cadence of the fleet-level metric series (per-device series keep their
  /// own ServerConfig cadence).
  double sample_interval_s = 0.5;
  FleetCoordinatorConfig coordinator;
  /// Dispatcher-side resilience: circuit-breaker health monitoring, probed
  /// recovery, and hedged re-dispatch. Off by default (PR 2 behaviour).
  HealthConfig health;
  /// Silent-corruption detection: per-device canary probing + drift
  /// detectors and detection-triggered reload; a confirmed-corrupt device is
  /// also quarantined when the health monitor is on. Off by default.
  integrity::FleetIntegrityConfig integrity;

  /// Throws ConfigError naming the offending device/field.
  void validate() const;
};

/// Per-tenant accounting row inside FleetMetrics. Filled by drivers that run
/// multi-tenant traffic (src/tenant); empty for single-tenant runs. Counts
/// follow one frame's life: offered -> (admitted | throttled) ->
/// (delivered | shed | lost), so offered == admitted + throttled and
/// admitted == delivered + shed + lost + in_flight at any instant.
struct TenantUsage {
  std::string name;
  std::int64_t offered = 0;    ///< frames the tenant's trace generated
  std::int64_t admitted = 0;   ///< past the token-bucket admission control
  std::int64_t throttled = 0;  ///< rejected by the token bucket
  std::int64_t shed = 0;       ///< lost at the (per-class) ingress queue
  std::int64_t delivered = 0;  ///< unique completions (hedge duplicates deduped)
  std::int64_t lost = 0;       ///< destroyed post-dispatch (devices, re-park sheds)
  double qoe_accuracy_sum = 0.0;  ///< summed delivered accuracy
  /// Seconds this tenant spent in SLO violation (per sample window: admitted
  /// traffic present but nothing delivered, or window p95 latency above the
  /// tenant's bound).
  double slo_violation_s = 0.0;
  sim::LatencyHistogram latency;  ///< capture->result latency of delivered frames

  /// QoE over offered frames (shed/throttled frames score zero), matching
  /// FleetMetrics::qoe() charging losses to the cluster.
  double qoe() const {
    return offered > 0 ? qoe_accuracy_sum / static_cast<double>(offered) : 0.0;
  }
};

constexpr auto field_table(std::type_identity<TenantUsage>) {
  using S = TenantUsage;
  return std::tuple{
      sim::first("name", &S::name),
      sim::sum("offered", &S::offered), sim::sum("admitted", &S::admitted),
      sim::sum("throttled", &S::throttled), sim::sum("shed", &S::shed),
      sim::sum("delivered", &S::delivered), sim::sum("lost", &S::lost),
      sim::sum("qoe_accuracy_sum", &S::qoe_accuracy_sum),
      sim::sum("slo_violation_s", &S::slo_violation_s),
      sim::histogram("latency", &S::latency),
  };
}

struct FleetDeviceResult {
  std::string name;
  edge::RunMetrics metrics;
  std::int64_t queued_at_end = 0;     ///< frames still waiting at t_end
  std::int64_t quarantines = 0;       ///< circuit-breaker trips on this device
  std::int64_t rejoins = 0;           ///< probed recoveries back to healthy
  HealthState final_health = HealthState::kHealthy;
};

constexpr auto field_table(std::type_identity<FleetDeviceResult>) {
  using S = FleetDeviceResult;
  return std::tuple{
      sim::first("name", &S::name),
      sim::sum("metrics", &S::metrics), sim::sum("queued_at_end", &S::queued_at_end),
      sim::sum("quarantines", &S::quarantines), sim::sum("rejoins", &S::rejoins),
      sim::first("final_health", &S::final_health),
  };
}

/// Aggregate + per-device outcome of one fleet run.
struct FleetMetrics {
  std::int64_t arrived = 0;       ///< frames offered to the ingress
  std::int64_t dispatched = 0;    ///< frames handed to a device queue (incl. re-dispatch)
  std::int64_t ingress_lost = 0;  ///< shed at the full ingress queue
  std::int64_t ingress_backlog = 0;  ///< still waiting at ingress at t_end
  /// Frames pulled back out of a sick or slow device's queue and offered to
  /// the dispatcher again (quarantine drains + hedges). Each pull re-enters
  /// the dispatch path, so flow conservation reads
  ///   arrived + redispatched == dispatched + ingress_lost + ingress_backlog.
  std::int64_t redispatched = 0;
  std::int64_t hedged = 0;  ///< subset of redispatched: queue-wait hedges
  std::int64_t quarantines = 0;  ///< circuit-breaker trips, fleet-wide
  std::int64_t rejoins = 0;      ///< probed recoveries, fleet-wide
  std::int64_t processed = 0;
  std::int64_t device_lost = 0;  ///< lost inside devices (stall drops, ...)
  double qoe_accuracy_sum = 0.0;
  double energy_j = 0.0;
  double duration_s = 0.0;
  int model_switches = 0;      ///< summed over devices
  int reconfigurations = 0;    ///< summed over devices
  int repartitions = 0;        ///< completed coordinator drain-and-reconfigure cycles
  /// p95 of the sampled worst-device backlog drain time — the fleet's tail
  /// latency proxy (a frame routed at a sample instant waits at most about
  /// this long on the slowest queue).
  double tail_latency_p95_s = 0.0;

  sim::TimeSeries workload_series;  ///< aggregate ingress FPS per window
  sim::TimeSeries loss_series;      ///< fleet loss fraction per window
  sim::TimeSeries qoe_series;       ///< fleet QoE per window
  sim::TimeSeries backlog_series;   ///< worst-device backlog estimate [s]

  /// Summed over devices: faults that manifested and how devices reacted.
  sim::FaultStats faults;

  /// Summed over devices: the silent-corruption ledger — config upsets that
  /// landed, wrong frames served while corrupt, canary traffic and its
  /// verdicts, scrubs and repairs (all-zero unless upsets or the integrity
  /// layer are configured).
  sim::IntegrityStats integrity;

  /// Summed over devices: detection-workload counters and mAP-proxy sums
  /// (all-zero unless a detection service model is attached via
  /// FleetDevice::configure).
  sim::DetectionStats detection;

  /// True end-to-end capture->result latency over delivered frames. Filled
  /// only by drivers that tag their frames (the ingest pipeline); empty for
  /// plain sharded-fleet traffic, whose frames are anonymous.
  sim::LatencyHistogram e2e_latency;

  std::vector<FleetDeviceResult> devices;

  /// Per-tenant breakdown (multi-tenant drivers only; see TenantUsage).
  std::vector<TenantUsage> tenants;

  std::int64_t lost() const { return ingress_lost + device_lost; }
  double frame_loss() const {
    return arrived > 0 ? static_cast<double>(lost()) / static_cast<double>(arrived) : 0.0;
  }
  /// Fleet QoE = summed model accuracy over processed frames / offered frames
  /// (the paper's QoE, with the ingress loss charged to the cluster).
  double qoe() const {
    return arrived > 0 ? qoe_accuracy_sum / static_cast<double>(arrived) : 0.0;
  }
  double average_power_w() const { return duration_s > 0 ? energy_j / duration_s : 0.0; }
};

/// Flow conservation of one fleet run: every frame offered to the ingress or
/// pulled back for re-dispatch was dispatched, shed at the ingress or is
/// still waiting there,
///   arrived + redispatched == dispatched + ingress_lost + ingress_backlog,
/// and the devices received exactly the dispatched frames.
bool conserves_flow(const FleetMetrics& m);

/// FleetMetrics' folds (sim/fields.hpp); sim::merge is the sharded engine's
/// reduction of its shards, in shard order. tail_latency_p95_s takes the max:
/// each shard's p95 lower-bounds the union's, and the conservative-window
/// engine reports the worst shard.
constexpr auto field_table(std::type_identity<FleetMetrics>) {
  using S = FleetMetrics;
  return std::tuple{
      sim::sum("arrived", &S::arrived), sim::sum("dispatched", &S::dispatched),
      sim::sum("ingress_lost", &S::ingress_lost), sim::sum("ingress_backlog", &S::ingress_backlog),
      sim::sum("redispatched", &S::redispatched), sim::sum("hedged", &S::hedged),
      sim::sum("quarantines", &S::quarantines),
      sim::sum("rejoins", &S::rejoins), sim::sum("processed", &S::processed),
      sim::sum("device_lost", &S::device_lost), sim::sum("qoe_accuracy_sum", &S::qoe_accuracy_sum),
      sim::sum("energy_j", &S::energy_j),
      sim::max("duration_s", &S::duration_s),
      sim::sum("model_switches", &S::model_switches),
      sim::sum("reconfigurations", &S::reconfigurations),
      sim::sum("repartitions", &S::repartitions),
      sim::max("tail_latency_p95_s", &S::tail_latency_p95_s),
      sim::sum_series("workload_series", &S::workload_series),
      sim::weighted_series("loss_series", &S::loss_series),
      sim::weighted_series("qoe_series", &S::qoe_series),
      sim::max_series("backlog_series", &S::backlog_series),
      sim::sum("faults", &S::faults),
      sim::sum("integrity", &S::integrity), sim::sum("detection", &S::detection),
      sim::histogram("e2e_latency", &S::e2e_latency),
      sim::concat("devices", &S::devices), sim::concat("tenants", &S::tenants),
  };
}


/// Serves one library version on its Fixed-Pruning accelerator and never
/// acts on its own; the fleet coordinator re-targets it through
/// DeviceSim::command_switch. The cluster-side counterpart of the paper's
/// Fixed accelerator: cheap to run, expensive to change.
class PinnedPolicy final : public edge::ServingPolicy {
 public:
  PinnedPolicy(const core::AcceleratorLibrary& library, std::size_t version);
  edge::ServingMode initial_mode() override;
  std::optional<edge::SwitchAction> on_poll(double, double) override { return std::nullopt; }

 private:
  const core::AcceleratorLibrary& library_;
  std::size_t version_;
};

/// One self-managed device slot: its own serving policy of \p kind over
/// \p library (per-device manager construction from one shared library).
FleetDevice managed_device(std::string name, const core::AcceleratorLibrary& library,
                           const core::RuntimeManagerConfig& manager,
                           core::PolicyKind kind = core::PolicyKind::kAdaFlow);

/// One coordinator-driven device slot pinned to \p version of \p library.
FleetDevice pinned_device(std::string name, const core::AcceleratorLibrary& library,
                          std::size_t version);

/// N identical managed devices ("dev0".."devN-1") over one shared library.
std::vector<FleetDevice> homogeneous_devices(const core::AcceleratorLibrary& library,
                                             const core::RuntimeManagerConfig& manager,
                                             int count,
                                             core::PolicyKind kind = core::PolicyKind::kAdaFlow);

}  // namespace adaflow::fleet

#pragma once

/// \file serving.hpp
/// The multi-tenant serving run: N tenants (tenant.hpp) share one
/// fleet::FleetEngine. Every admitted frame is tagged with its tenant id and
/// flows through token-bucket admission -> ingress scheduling (FIFO or WFQ,
/// scheduler.hpp) -> the tenant-partition router -> a device, and reports
/// back through the engine's done/lost hooks into per-tenant QoE,
/// SLO-violation and latency accounting (fleet::TenantUsage).
///
/// The tenant coordinator replaces the engine's single-class coordinator:
/// each tick it measures every tenant's admitted rate, feeds a per-tenant
/// forecast tracker, and — under PartitionPolicy::kRateAware — re-plans the
/// device split and per-tenant library versions against the predicted rates
/// (coordinator.hpp), applying device moves instantly and version switches
/// opportunistically (only on near-idle devices, spaced by the paper's
/// switch-interval rule). PartitionPolicy::kPeakFps plans once at t=0 and
/// never adapts — the static baseline `bench_adaflow tenant` measures against.

#include <cstdint>
#include <tuple>
#include <type_traits>
#include <vector>

#include "adaflow/core/library.hpp"
#include "adaflow/dse/rate_planner.hpp"
#include "adaflow/fleet/fleet.hpp"
#include "adaflow/sim/fields.hpp"
#include "adaflow/tenant/coordinator.hpp"
#include "adaflow/tenant/tenant.hpp"

namespace adaflow::tenant {

enum class SchedulerPolicy {
  kFifo,  ///< one shared FIFO ingress queue (the pre-tenant engine default)
  kWfq,   ///< per-tenant weighted-fair classes (scheduler.hpp)
};

struct MultiTenantConfig {
  std::vector<TenantSpec> tenants;
  int devices = 8;
  SchedulerPolicy scheduler = SchedulerPolicy::kWfq;
  PartitionPolicy partition = PartitionPolicy::kRateAware;
  /// Work-conserving borrowing: an overloaded partition may spill onto the
  /// least-loaded foreign device. Off = hard partition (frames wait at
  /// ingress for their own devices — pairs with the static baseline).
  bool allow_borrow = true;
  double duration_s = 40.0;
  /// SLO/violation judgment cadence (one violation-second bucket per window).
  double sample_interval_s = 0.5;
  double warmup_s = 1.0;  ///< no re-planning before the rate estimate fills
  double fps_margin = 1.10;
  fleet::HealthConfig health;  ///< dispatcher resilience; off by default

  /// Throws ConfigError naming the offending tenant/field.
  void validate() const;
};

/// One tenant's outcome (usage counts live in fleet.tenants too).
struct TenantResult {
  fleet::TenantUsage usage;
  double latency_p50_s = 0.0;
  double latency_p95_s = 0.0;
  double latency_p99_s = 0.0;
  double mean_accuracy = 0.0;      ///< delivered accuracy mean
  double accuracy_floor = 0.0;     ///< library base accuracy - threshold
  /// Mean delivered accuracy over the windows where the tenant's offered
  /// rate stayed within its admitted budget — the acceptance criterion's
  /// "QoE while within budget" view.
  double in_budget_accuracy = 0.0;
  std::int64_t in_budget_delivered = 0;
  double offered_rate_mean_fps = 0.0;
  std::size_t final_version = 0;       ///< version of the tenant's first device at t_end
  std::int64_t version_switches = 0;   ///< switches commanded on its devices
  /// Always zero: no run plans a rate-matched folding. Kept while both
  /// replay hashers cover them (dropping them re-pins both).
  dse::RateFoldingPlan folding_plan;
  std::int64_t peak_parallelism = 0;
};

struct MultiTenantMetrics {
  fleet::FleetMetrics fleet;  ///< fleet.tenants holds the per-tenant usage rows
  std::vector<TenantResult> tenants;
  double worst_violation_s = 0.0;  ///< max per-tenant SLO-violation seconds
  double total_violation_s = 0.0;
  std::int64_t device_moves = 0;      ///< partition reassignments applied
  std::int64_t version_switches = 0;  ///< version switches commanded
  sim::ForecastStats forecast;        ///< pooled per-tenant tracker quality
};

// Field tables (sim/fields.hpp). A tenant's percentiles, accuracy means and
// plan are derived once per run and never combine (kFirst).

constexpr auto field_table(std::type_identity<TenantResult>) {
  using S = TenantResult;
  return std::tuple{
      sim::sum("usage", &S::usage),
      sim::first("latency_p50_s", &S::latency_p50_s),
      sim::first("latency_p95_s", &S::latency_p95_s),
      sim::first("latency_p99_s", &S::latency_p99_s),
      sim::first("mean_accuracy", &S::mean_accuracy),
      sim::first("accuracy_floor", &S::accuracy_floor),
      sim::first("in_budget_accuracy", &S::in_budget_accuracy),
      sim::sum("in_budget_delivered", &S::in_budget_delivered),
      sim::first("offered_rate_mean_fps", &S::offered_rate_mean_fps),
      sim::first("final_version", &S::final_version),
      sim::sum("version_switches", &S::version_switches),
      sim::first("folding_plan", &S::folding_plan),
      sim::first("peak_parallelism", &S::peak_parallelism),
  };
}

constexpr auto field_table(std::type_identity<MultiTenantMetrics>) {
  using S = MultiTenantMetrics;
  return std::tuple{
      sim::sum("fleet", &S::fleet),
      sim::concat("tenants", &S::tenants),
      sim::max("worst_violation_s", &S::worst_violation_s),
      sim::sum("total_violation_s", &S::total_violation_s),
      sim::sum("device_moves", &S::device_moves),
      sim::sum("version_switches", &S::version_switches), sim::sum("forecast", &S::forecast),
  };
}

/// Runs the multi-tenant simulation; (config, library, seed) replays
/// bit-identically.
MultiTenantMetrics run_tenants(const MultiTenantConfig& config,
                               const core::AcceleratorLibrary& library, std::uint64_t seed);

}  // namespace adaflow::tenant

// The folding plan a TenantResult carries is a dse/hls value; its tables sit
// here, with their only metrics user, in the namespaces lookup finds them in.
namespace adaflow::hls {

constexpr auto field_table(std::type_identity<LayerFolding>) {
  return std::tuple{
      sim::first("pe", &LayerFolding::pe), sim::first("simd", &LayerFolding::simd),
  };
}

constexpr auto field_table(std::type_identity<FoldingConfig>) {
  return std::tuple{sim::first("layers", &FoldingConfig::layers)};
}

}  // namespace adaflow::hls

namespace adaflow::dse {

constexpr auto field_table(std::type_identity<RateFoldingPlan>) {
  using S = RateFoldingPlan;
  return std::tuple{
      sim::first("offered_fps", &S::offered_fps), sim::first("target_fps", &S::target_fps),
      sim::first("folding", &S::folding), sim::first("sustained_fps", &S::sustained_fps),
      sim::first("meets_target", &S::meets_target), sim::first("parallelism", &S::parallelism),
  };
}

}  // namespace adaflow::dse

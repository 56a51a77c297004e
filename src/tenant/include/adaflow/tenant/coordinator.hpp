#pragma once

/// \file coordinator.hpp
/// Pure planning logic of the multi-tenant coordinator: given each tenant's
/// predicted aggregate rate, split the device fleet (largest-remainder
/// proportional shares, at least one device each) and pick each tenant's
/// library version. Two partitioning policies:
///
///  - kPeakFps: the static baseline — every tenant gets the fastest version
///    inside its accuracy threshold, shares are demand-blind (equal). This
///    maximizes raw FPS and minimizes delivered accuracy.
///  - kRateAware: the data-rate-aware policy — each tenant's per-device
///    share of its *predicted* rate picks the most accurate version that
///    still meets that rate (core::select_library_version with an fps
///    margin). Accuracy is bought back wherever the offered rate leaves
///    slack, and a predicted rise re-provisions before it lands.
///
/// Keeping this free of the event queue makes the policy unit-testable with
/// hand-written rate vectors; the serving layer applies plans to the live
/// engine (device reassignment + gated mode switches).

#include <cstdint>
#include <vector>

#include "adaflow/core/library.hpp"
#include "adaflow/tenant/tenant.hpp"

namespace adaflow::tenant {

enum class PartitionPolicy {
  kPeakFps,    ///< static: fastest version within threshold, equal shares
  kRateAware,  ///< rate-matched versions, demand-proportional shares
};

/// What the planner needs to know about one tenant.
struct TenantPlanInput {
  double predicted_rate_fps = 0.0;  ///< forecast-floored aggregate rate
  double accuracy_threshold = 0.10;
  const core::AcceleratorLibrary* library = nullptr;  ///< null = fleet library
};

struct PartitionPlan {
  std::vector<int> device_count;        ///< tenant -> devices allocated
  std::vector<std::size_t> version;     ///< tenant -> library version index
  std::vector<double> per_device_fps;   ///< tenant -> planned per-device rate
};

/// Proportional integer split of \p total devices over \p demands by largest
/// remainder, guaranteeing >= 1 per tenant (requires total >= tenants).
/// All-zero demand splits evenly. Deterministic tie-breaking (fractional
/// part desc, then index asc).
std::vector<int> split_devices(const std::vector<double>& demands, int total);

/// Full plan for \p tenants over \p total_devices (see PartitionPolicy).
PartitionPlan plan_partition(const std::vector<TenantPlanInput>& tenants,
                             const core::AcceleratorLibrary& fleet_library, int total_devices,
                             PartitionPolicy policy);

/// Minimal-churn device reassignment: keeps every device whose owner still
/// has budget in place, then hands surplus devices (highest index first) to
/// tenants under their target count (lowest tenant first). Returns the new
/// device -> tenant owner vector.
std::vector<std::size_t> rebalance_owners(const std::vector<std::size_t>& current,
                                          const std::vector<int>& target_counts);

}  // namespace adaflow::tenant

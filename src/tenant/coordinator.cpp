#include "adaflow/tenant/coordinator.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "adaflow/core/runtime_manager.hpp"

namespace adaflow::tenant {

std::vector<int> split_devices(const std::vector<double>& demands, int total) {
  const int n = static_cast<int>(demands.size());
  require(n >= 1, "split_devices needs at least one tenant");
  require(total >= n, "split_devices needs at least one device per tenant");
  double sum = 0.0;
  for (const double d : demands) {
    require(std::isfinite(d) && d >= 0.0, "split_devices demands must be finite and >= 0");
    sum += d;
  }
  std::vector<int> counts(static_cast<std::size_t>(n), 0);
  std::vector<double> fraction(static_cast<std::size_t>(n), 0.0);
  int assigned = 0;
  for (int t = 0; t < n; ++t) {
    const double quota = sum > 0.0 ? static_cast<double>(total) * demands[t] / sum
                                   : static_cast<double>(total) / n;
    counts[t] = static_cast<int>(std::floor(quota));
    fraction[t] = quota - std::floor(quota);
    assigned += counts[t];
  }
  // Largest remainder for the leftover devices.
  std::vector<int> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](int a, int b) { return fraction[a] > fraction[b]; });
  for (int k = 0; assigned < total; ++k) {
    ++counts[order[static_cast<std::size_t>(k % n)]];
    ++assigned;
  }
  // Everyone serves: move devices from the biggest allocation to empty
  // tenants (deterministic: always the current maximum, lowest index wins).
  for (int t = 0; t < n; ++t) {
    while (counts[t] == 0) {
      const auto richest = std::max_element(counts.begin(), counts.end());
      require(*richest > 1, "split_devices cannot cover every tenant");
      --*richest;
      ++counts[t];
    }
  }
  return counts;
}

PartitionPlan plan_partition(const std::vector<TenantPlanInput>& tenants,
                             const core::AcceleratorLibrary& fleet_library, int total_devices,
                             PartitionPolicy policy) {
  require(!tenants.empty(), "plan_partition needs at least one tenant");
  PartitionPlan plan;
  std::vector<double> demands(tenants.size(), 0.0);
  if (policy == PartitionPolicy::kRateAware) {
    for (std::size_t t = 0; t < tenants.size(); ++t) {
      demands[t] = tenants[t].predicted_rate_fps;
    }
  }  // kPeakFps: demand-blind equal shares (all-zero demand vector)
  plan.device_count = split_devices(demands, total_devices);
  plan.version.resize(tenants.size());
  plan.per_device_fps.resize(tenants.size());
  for (std::size_t t = 0; t < tenants.size(); ++t) {
    const core::AcceleratorLibrary& lib =
        tenants[t].library != nullptr ? *tenants[t].library : fleet_library;
    plan.per_device_fps[t] =
        tenants[t].predicted_rate_fps / static_cast<double>(plan.device_count[t]);
    // kPeakFps provisions for an unreachable demand, which resolves to the
    // fastest version inside the accuracy threshold; kRateAware asks for the
    // most accurate version that still clears the per-device share.
    const double demand =
        policy == PartitionPolicy::kPeakFps ? lib.versions.back().fps_fixed * 1e6
                                            : plan.per_device_fps[t];
    plan.version[t] = core::select_library_version(lib, demand, tenants[t].accuracy_threshold,
                                                   core::kFpsMargin,
                                                   /*use_flexible_fps=*/false);
  }
  return plan;
}

std::vector<std::size_t> rebalance_owners(const std::vector<std::size_t>& current,
                                          const std::vector<int>& target_counts) {
  std::vector<std::size_t> owners = current;
  std::vector<int> have(target_counts.size(), 0);
  for (const std::size_t t : owners) {
    require(t < target_counts.size(), "rebalance_owners owner out of range");
    ++have[t];
  }
  require(std::accumulate(target_counts.begin(), target_counts.end(), 0) ==
              static_cast<int>(owners.size()),
          "rebalance_owners target counts must cover every device");
  // Free surplus devices highest-index-first so low-index devices keep
  // stable ownership, then hand them to under-target tenants in index order.
  for (std::size_t t = 0; t < target_counts.size(); ++t) {
    for (std::size_t i = owners.size(); i-- > 0 && have[t] > target_counts[t];) {
      if (owners[i] == t) {
        owners[i] = target_counts.size();  // parked
        --have[t];
      }
    }
  }
  for (std::size_t t = 0; t < target_counts.size(); ++t) {
    for (std::size_t i = 0; i < owners.size() && have[t] < target_counts[t]; ++i) {
      if (owners[i] == target_counts.size()) {
        owners[i] = t;
        ++have[t];
      }
    }
  }
  return owners;
}

}  // namespace adaflow::tenant

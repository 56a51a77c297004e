/// Partition-planner unit tests: device splitting, peak-FPS vs rate-aware
/// version selection, and minimal-churn owner rebalancing.

#include "adaflow/tenant/coordinator.hpp"

#include "adaflow/common/error.hpp"
#include "adaflow/core/library.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace adaflow::tenant {
namespace {

TEST(SplitDevices, ProportionalWithLargestRemainder) {
  EXPECT_EQ(split_devices({100.0, 100.0}, 4), (std::vector<int>{2, 2}));
  EXPECT_EQ(split_devices({300.0, 100.0}, 4), (std::vector<int>{3, 1}));
  // 8 * 5/6.5 = 6.15, 8 * 1/6.5 = 1.23, 8 * 0.5/6.5 = 0.62 -> 6/1/1 via
  // largest remainder + min-1.
  EXPECT_EQ(split_devices({5000.0, 1000.0, 500.0}, 8), (std::vector<int>{6, 1, 1}));
}

TEST(SplitDevices, AllZeroDemandSplitsEvenly) {
  EXPECT_EQ(split_devices({0.0, 0.0, 0.0}, 8), (std::vector<int>{3, 3, 2}));
}

TEST(SplitDevices, EveryTenantGetsAtLeastOneDevice) {
  const std::vector<int> counts = split_devices({10000.0, 1.0, 1.0}, 4);
  EXPECT_EQ(counts.size(), 3u);
  for (const int c : counts) {
    EXPECT_GE(c, 1);
  }
  EXPECT_EQ(counts[0] + counts[1] + counts[2], 4);
}

TEST(SplitDevices, RejectsImpossibleInputs) {
  EXPECT_THROW(split_devices({}, 4), ConfigError);
  EXPECT_THROW(split_devices({1.0, 1.0, 1.0}, 2), ConfigError);
  EXPECT_THROW(split_devices({-1.0, 1.0}, 4), ConfigError);
}

std::vector<TenantPlanInput> two_tenants(double rate0, double rate1, double threshold0 = 0.10,
                                         double threshold1 = 0.10) {
  TenantPlanInput a;
  a.predicted_rate_fps = rate0;
  a.accuracy_threshold = threshold0;
  TenantPlanInput b;
  b.predicted_rate_fps = rate1;
  b.accuracy_threshold = threshold1;
  return {a, b};
}

TEST(PlanPartition, PeakFpsPicksFastestVersionWithinThreshold) {
  // synthetic_library: fps 500/725/1051/1524, accuracy .90/.875/.84/.795.
  const core::AcceleratorLibrary lib = core::synthetic_library();
  const PartitionPlan plan = plan_partition(two_tenants(100.0, 5000.0, /*threshold0=*/0.03,
                                                        /*threshold1=*/0.12),
                                            lib, 4, PartitionPolicy::kPeakFps);
  // Demand-blind equal shares, fastest version the threshold allows —
  // regardless of either tenant's actual rate.
  EXPECT_EQ(plan.device_count, (std::vector<int>{2, 2}));
  EXPECT_EQ(plan.version[0], 1u) << "floor 0.87 allows versions 0-1, peak picks 1";
  EXPECT_EQ(plan.version[1], 3u) << "floor 0.78 allows all, peak picks the fastest";
}

TEST(PlanPartition, RateAwareBuysAccuracyWhereRateLeavesSlack) {
  const core::AcceleratorLibrary lib = core::synthetic_library();
  // Demand-proportional split gives {1, 3}. Tenant 0 then offers 200 FPS on
  // one device: the most accurate version serves it. Tenant 1 offers 600 FPS
  // per device: version 1 (725 FPS) covers that at margin 1.1.
  const PartitionPlan plan =
      plan_partition(two_tenants(200.0, 1800.0), lib, 4, PartitionPolicy::kRateAware);
  EXPECT_EQ(plan.device_count, (std::vector<int>{1, 3}));
  EXPECT_EQ(plan.version[0], 0u) << "200 FPS on one device: most accurate version";
  EXPECT_EQ(plan.version[1], 1u) << "600 FPS per device fits version 1 at margin 1.1";
}

TEST(PlanPartition, RateAwareRespectsTheAccuracyThreshold) {
  const core::AcceleratorLibrary lib = core::synthetic_library();
  // 3000 FPS on one device exceeds every version; the fastest version inside
  // the 0.07 threshold (floor 0.83 -> versions 0-2) must win, never v3.
  std::vector<TenantPlanInput> tenants = two_tenants(3000.0, 100.0, 0.07, 0.07);
  const PartitionPlan plan = plan_partition(tenants, lib, 2, PartitionPolicy::kRateAware);
  EXPECT_EQ(plan.version[0], 2u);
}

TEST(RebalanceOwners, MinimalChurnKeepsSatisfiedOwnersInPlace) {
  // Devices 0-3 owned {0,0,1,1}; new target {1,3}: tenant 0 frees its
  // highest-index device, tenant 1 receives it; devices 0,2,3 keep owners.
  const std::vector<std::size_t> owners =
      rebalance_owners({0, 0, 1, 1}, std::vector<int>{1, 3});
  EXPECT_EQ(owners, (std::vector<std::size_t>{0, 1, 1, 1}));
}

TEST(RebalanceOwners, NoChangeWhenTargetsAlreadyMet) {
  const std::vector<std::size_t> current = {0, 1, 0, 1};
  EXPECT_EQ(rebalance_owners(current, std::vector<int>{2, 2}), current);
}

TEST(RebalanceOwners, RejectsMismatchedTargets) {
  EXPECT_THROW(rebalance_owners({0, 0, 1}, std::vector<int>{1, 1}), ConfigError);
}

}  // namespace
}  // namespace adaflow::tenant

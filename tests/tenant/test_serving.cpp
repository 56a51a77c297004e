/// End-to-end run_tenants tests: determinism, per-tenant accounting
/// identities, fleet flow conservation, and config validation error paths.
/// Scenarios are kept tiny — `bench_adaflow tenant` owns the contention headline.

#include "adaflow/tenant/serving.hpp"

#include "adaflow/common/error.hpp"
#include "adaflow/core/library.hpp"
#include "adaflow/edge/workload.hpp"

#include <gtest/gtest.h>

namespace adaflow::tenant {
namespace {

constexpr std::uint64_t kSeed = 7;

MultiTenantConfig small_config(double duration_s = 4.0) {
  MultiTenantConfig config;
  config.devices = 3;
  config.duration_s = duration_s;
  config.warmup_s = 0.5;

  TenantSpec a;
  a.name = "alpha";
  a.weight = 2.0;
  a.admission.rate_fps = 400.0;
  a.trace = edge::WorkloadTrace{{0.0}, {300.0}, duration_s};
  TenantSpec b;
  b.name = "beta";
  b.admission.rate_fps = 200.0;
  b.trace = edge::WorkloadTrace{{0.0}, {150.0}, duration_s};
  config.tenants = {a, b};
  return config;
}

TEST(RunTenants, SameSeedReplayIsBitIdentical) {
  const core::AcceleratorLibrary lib = core::synthetic_library();
  const MultiTenantConfig config = small_config();
  const MultiTenantMetrics first = run_tenants(config, lib, kSeed);
  const MultiTenantMetrics replay = run_tenants(config, lib, kSeed);
  EXPECT_TRUE(sim::identical(first, replay));
  // A different seed draws different Poisson arrivals.
  const MultiTenantMetrics other = run_tenants(config, lib, kSeed + 1);
  EXPECT_FALSE(sim::identical(first, other));
}

TEST(RunTenants, PerTenantAccountingIdentitiesHold) {
  const core::AcceleratorLibrary lib = core::synthetic_library();
  const MultiTenantMetrics m = run_tenants(small_config(), lib, kSeed);
  ASSERT_EQ(m.tenants.size(), 2u);
  ASSERT_EQ(m.fleet.tenants.size(), 2u);

  std::int64_t admitted_total = 0;
  for (const TenantResult& t : m.tenants) {
    const fleet::TenantUsage& u = t.usage;
    EXPECT_GT(u.offered, 0) << u.name;
    EXPECT_EQ(u.offered, u.admitted + u.throttled) << u.name;
    // Frames still in flight at finalize are the only slack allowed.
    EXPECT_GE(u.admitted, u.delivered + u.shed + u.lost) << u.name;
    EXPECT_GT(u.delivered, 0) << u.name;
    EXPECT_EQ(u.latency.count(), u.delivered) << u.name;
    admitted_total += u.admitted;
  }
  // Every admitted frame entered the fleet: per-tenant admissions must sum
  // to the fleet's arrivals, and the fleet identity must balance.
  EXPECT_EQ(admitted_total, m.fleet.arrived);
  EXPECT_EQ(m.fleet.arrived + m.fleet.redispatched,
            m.fleet.dispatched + m.fleet.ingress_lost + m.fleet.ingress_backlog);
}

TEST(RunTenants, UncontendedTenantsMeetTheirSlos) {
  const core::AcceleratorLibrary lib = core::synthetic_library();
  // 450 FPS of offered load on 3 devices x 500 FPS: nobody should violate.
  const MultiTenantMetrics m = run_tenants(small_config(), lib, kSeed);
  EXPECT_EQ(m.worst_violation_s, 0.0);
  EXPECT_EQ(m.total_violation_s, 0.0);
  for (const TenantResult& t : m.tenants) {
    EXPECT_GE(t.mean_accuracy, t.accuracy_floor) << t.usage.name;
  }
}

TEST(RunTenants, TokenBucketThrottlesAnOverOfferingTenant) {
  const core::AcceleratorLibrary lib = core::synthetic_library();
  MultiTenantConfig config = small_config();
  // Tenant beta offers 4x its admitted budget: the bucket must throttle.
  config.tenants[1].trace = edge::WorkloadTrace{{0.0}, {800.0}, config.duration_s};
  const MultiTenantMetrics m = run_tenants(config, lib, kSeed);
  EXPECT_GT(m.tenants[1].usage.throttled, 0);
  EXPECT_EQ(m.tenants[1].usage.offered,
            m.tenants[1].usage.admitted + m.tenants[1].usage.throttled);
  // The throttle protects alpha: its traffic stays inside budget, untouched.
  EXPECT_EQ(m.tenants[0].usage.throttled, 0);
}

TEST(RunTenants, FifoAndPeakFpsBaselineAlsoBalances) {
  const core::AcceleratorLibrary lib = core::synthetic_library();
  MultiTenantConfig config = small_config();
  config.scheduler = SchedulerPolicy::kFifo;
  config.partition = PartitionPolicy::kPeakFps;
  config.allow_borrow = false;
  const MultiTenantMetrics m = run_tenants(config, lib, kSeed);
  EXPECT_EQ(m.fleet.arrived + m.fleet.redispatched,
            m.fleet.dispatched + m.fleet.ingress_lost + m.fleet.ingress_backlog);
  EXPECT_TRUE(sim::identical(m, run_tenants(config, lib, kSeed)));
}

TEST(MultiTenantConfigValidate, RejectsBadConfigs) {
  MultiTenantConfig config = small_config();
  config.tenants.clear();
  EXPECT_THROW(config.validate(), ConfigError);

  config = small_config();
  config.devices = 1;  // fewer devices than tenants
  EXPECT_THROW(config.validate(), ConfigError);

  config = small_config();
  config.duration_s = 0.0;
  EXPECT_THROW(config.validate(), ConfigError);

  config = small_config();
  config.tenants[0].admission.rate_fps = -1.0;
  EXPECT_THROW(config.validate(), ConfigError);
}

}  // namespace
}  // namespace adaflow::tenant

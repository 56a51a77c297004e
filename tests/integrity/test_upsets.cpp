#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "adaflow/common/error.hpp"
#include "adaflow/core/library.hpp"
#include "adaflow/core/runtime_manager.hpp"
#include "adaflow/edge/server.hpp"
#include "adaflow/edge/workload.hpp"
#include "adaflow/faults/fault_injector.hpp"
#include "adaflow/integrity/runner.hpp"

namespace adaflow::integrity {
namespace {

edge::WorkloadTrace steady_trace(double rate, double duration_s, std::uint64_t seed) {
  edge::WorkloadConfig c;
  c.devices = 1;
  c.fps_per_device = rate;
  c.phases = {edge::WorkloadPhase{0.0, duration_s, duration_s}};
  return edge::WorkloadTrace(c, seed);
}

/// Serves the Flexible overlay on the top library version and never acts —
/// the Flexible-side counterpart of PinnedPolicy, for cross-section tests.
class FlexiblePinnedPolicy final : public edge::ServingPolicy {
 public:
  explicit FlexiblePinnedPolicy(const core::AcceleratorLibrary& library) : library_(library) {}
  edge::ServingMode initial_mode() override {
    const core::ModelVersion& v = library_.versions.front();
    edge::ServingMode mode;
    mode.model_version = v.version;
    mode.accelerator = "Flexible";
    mode.fps = v.fps_flexible;
    mode.accuracy = v.accuracy;
    mode.power_busy_w = v.power_busy_flexible_w;
    mode.power_idle_w = v.power_idle_flexible_w;
    return mode;
  }
  std::optional<edge::SwitchAction> on_poll(double, double) override { return std::nullopt; }

 private:
  const core::AcceleratorLibrary& library_;
};

TEST(ConfigUpsetSchedule, RejectsBadSpecs) {
  EXPECT_THROW(faults::FaultInjector(faults::config_upset_storm(5.0, 1.0, 2.0), 7), ConfigError);
  EXPECT_THROW(faults::FaultInjector(faults::config_upset_storm(0.0, 10.0, -2.0), 7),
               ConfigError);
  EXPECT_NO_THROW(faults::FaultInjector(faults::config_upset_storm(0.0, 10.0, 2.0), 7));
}

TEST(ConfigUpsetSchedule, ResolvedAtConstructionAndSeedDeterministic) {
  const faults::FaultSchedule storm = faults::config_upset_storm(2.0, 12.0, 1.5, 0.1, 0.3);
  faults::FaultInjector a(storm, 42);
  faults::FaultInjector b(storm, 42);
  faults::FaultInjector c(storm, 43);

  ASSERT_EQ(a.config_upset_events().size(), b.config_upset_events().size());
  for (std::size_t i = 0; i < a.config_upset_events().size(); ++i) {
    EXPECT_DOUBLE_EQ(a.config_upset_events()[i].time_s, b.config_upset_events()[i].time_s);
    EXPECT_DOUBLE_EQ(a.config_upset_events()[i].accuracy_penalty, 0.1);
    EXPECT_DOUBLE_EQ(a.config_upset_events()[i].flexible_cross_section, 0.3);
  }
  // A different seed draws a different Poisson stream (times, and almost
  // surely count, differ).
  bool differs = a.config_upset_events().size() != c.config_upset_events().size();
  for (std::size_t i = 0; !differs && i < a.config_upset_events().size(); ++i) {
    differs = a.config_upset_events()[i].time_s != c.config_upset_events()[i].time_s;
  }
  EXPECT_TRUE(differs);
}

TEST(ConfigUpsetSchedule, ArrivalsStayInsideTheWindowAndNearTheRate) {
  faults::FaultInjector inj(faults::config_upset_storm(3.0, 23.0, 2.0), 9);
  double prev = 0.0;
  for (const faults::ConfigUpsetEvent& u : inj.config_upset_events()) {
    EXPECT_GE(u.time_s, 3.0);
    EXPECT_LT(u.time_s, 23.0);
    EXPECT_GE(u.time_s, prev);  // time-ascending
    prev = u.time_s;
  }
  // 20 s at 2/s: expect ~40; accept a wide Poisson band.
  const std::size_t n = inj.config_upset_events().size();
  EXPECT_GE(n, 15u);
  EXPECT_LE(n, 75u);
}

TEST(ConfigUpsets, LandOnTheDeviceAndCorruptDeliveredFrames) {
  const core::AcceleratorLibrary lib = core::synthetic_library();
  IntegrityRunConfig config;
  config.canary.canary_interval_s = 0.0;  // no detection, no repair
  const edge::RunMetrics m = run_integrity(
      steady_trace(300.0, 20.0, 5), std::make_unique<core::StaticFinnPolicy>(lib), lib, config,
      faults::config_upset_storm(2.0, 20.0, 0.5), 5);

  EXPECT_GT(m.integrity.upsets_injected, 0);
  EXPECT_GT(m.integrity.wrong_frames, 0);
  EXPECT_GT(m.integrity.corrupt_time_s, 0.0);
  // Unprotected run: corruption persists to the end of the run.
  EXPECT_EQ(m.integrity.repairs, 0);
  EXPECT_EQ(m.integrity.canaries_sent, 0);
  // Wrong frames still count as delivered — QoE is charged, not throughput.
  EXPECT_LE(m.integrity.wrong_frames, m.processed);
}

TEST(ConfigUpsets, FlexibleCrossSectionScalesThePenalty) {
  const core::AcceleratorLibrary lib = core::synthetic_library();
  IntegrityRunConfig config;
  config.canary.canary_interval_s = 0.0;

  // Cross-section 0: with the Flexible overlay loaded no essential config
  // bit is exposed, so the scheduled upsets never land — no corruption, no
  // wrong frames, nothing in the ledger.
  const edge::RunMetrics immune = run_integrity(
      steady_trace(300.0, 20.0, 5), std::make_unique<FlexiblePinnedPolicy>(lib), lib, config,
      faults::config_upset_storm(2.0, 20.0, 0.5, 0.08, /*flexible_cross_section=*/0.0), 5);
  EXPECT_EQ(immune.integrity.upsets_injected, 0);
  EXPECT_EQ(immune.integrity.wrong_frames, 0);
  EXPECT_DOUBLE_EQ(immune.integrity.corrupt_time_s, 0.0);

  // Full cross-section: the same schedule corrupts the overlay like a Fixed
  // bitstream.
  const edge::RunMetrics exposed = run_integrity(
      steady_trace(300.0, 20.0, 5), std::make_unique<FlexiblePinnedPolicy>(lib), lib, config,
      faults::config_upset_storm(2.0, 20.0, 0.5, 0.08, /*flexible_cross_section=*/1.0), 5);
  EXPECT_GT(exposed.integrity.wrong_frames, 0);
}

TEST(ConfigUpsets, ReplayIsBitIdenticalForTheSameSeed) {
  const core::AcceleratorLibrary lib = core::synthetic_library();
  IntegrityRunConfig config;
  config.canary.canary_interval_s = 0.25;
  config.policy.scrub_period_s = 4.0;
  const faults::FaultSchedule storm = faults::config_upset_storm(1.0, 18.0, 0.8);

  const edge::RunMetrics a =
      run_integrity(steady_trace(400.0, 20.0, 11), std::make_unique<core::StaticFinnPolicy>(lib),
                    lib, config, storm, 11);
  const edge::RunMetrics b =
      run_integrity(steady_trace(400.0, 20.0, 11), std::make_unique<core::StaticFinnPolicy>(lib),
                    lib, config, storm, 11);

  EXPECT_TRUE(sim::identical(a, b));
}

// Regression: the repeated-run fold used to drop the integrity counters and
// the end-to-end latency histogram.
TEST(ConfigUpsets, RepeatedRunMeanCarriesIntegrityAndLatency) {
  const core::AcceleratorLibrary lib = core::synthetic_library();
  IntegrityRunConfig config;
  config.canary.canary_interval_s = 0.25;
  config.policy.scrub_period_s = 4.0;
  const faults::FaultSchedule storm = faults::config_upset_storm(1.0, 18.0, 0.8);

  std::vector<edge::RunMetrics> runs;
  std::int64_t canaries = 0;
  std::int64_t upsets = 0;
  double corrupt_s = 0.0;
  for (std::uint64_t seed : {11u, 12u, 13u}) {
    edge::RunMetrics m =
        run_integrity(steady_trace(400.0, 20.0, seed),
                      std::make_unique<core::StaticFinnPolicy>(lib), lib, config, storm, seed);
    // run_integrity serves no ingest pipeline; give each run a latency sample.
    m.e2e_latency.record(0.01 * static_cast<double>(seed));
    canaries += m.integrity.canaries_sent;
    upsets += m.integrity.upsets_injected;
    corrupt_s += m.integrity.corrupt_time_s;
    runs.push_back(std::move(m));
  }
  const edge::RepeatedRunResult r = edge::summarize_runs(std::move(runs));
  EXPECT_GT(r.mean.integrity.canaries_sent, 0);
  EXPECT_GT(r.mean.integrity.upsets_injected, 0);
  EXPECT_EQ(r.mean.integrity.canaries_sent, std::llround(static_cast<double>(canaries) / 3.0));
  EXPECT_EQ(r.mean.integrity.upsets_injected, std::llround(static_cast<double>(upsets) / 3.0));
  EXPECT_DOUBLE_EQ(r.mean.integrity.corrupt_time_s, corrupt_s / 3.0);
  EXPECT_EQ(r.mean.e2e_latency.count(), 3);
}

}  // namespace
}  // namespace adaflow::integrity

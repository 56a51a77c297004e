#include "adaflow/edge/server.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "adaflow/common/parallel.hpp"

namespace adaflow::edge {
namespace {

ServingMode mode(double fps) {
  ServingMode m;
  m.model_version = "test@p0";
  m.accelerator = "Fixed";
  m.fps = fps;
  m.accuracy = 0.9;
  m.power_busy_w = 1.0;
  m.power_idle_w = 0.7;
  return m;
}

class StaticPolicy : public ServingPolicy {
 public:
  explicit StaticPolicy(ServingMode m) : mode_(m) {}
  ServingMode initial_mode() override { return mode_; }
  std::optional<SwitchAction> on_poll(double, double) override { return std::nullopt; }

 private:
  ServingMode mode_;
};

WorkloadConfig workload(double duration = 5.0) {
  WorkloadConfig c;
  c.devices = 20;
  c.fps_per_device = 30.0;
  c.phases = {WorkloadPhase{0.5, 0.6, duration}};
  return c;
}

TEST(ParallelRepeated, ResultsAreBitIdenticalAcrossWorkerCounts) {
  // run_repeated fans individual runs out over the pool, but each run's seed
  // is fixed by its index and aggregation walks results in run order — so
  // the pool size must be invisible in the output.
  const WorkloadConfig wl = workload();
  auto factory = [] { return std::make_unique<StaticPolicy>(mode(450.0)); };

  RepeatedRunResult baseline;
  bool first = true;
  for (int workers : {1, 4, default_worker_count()}) {
    set_worker_count(workers);
    const RepeatedRunResult r = run_repeated(wl, factory, ServerConfig{}, 6);
    if (first) {
      baseline = r;
      first = false;
      EXPECT_GT(r.mean.arrived, 0);
      EXPECT_GT(r.pooled_frame_loss, 0.0);  // 450 FPS under ~600 FPS load
      continue;
    }
    EXPECT_TRUE(sim::identical(r.mean, baseline.mean)) << workers << " workers";
    EXPECT_DOUBLE_EQ(r.pooled_frame_loss, baseline.pooled_frame_loss);
    EXPECT_DOUBLE_EQ(r.pooled_qoe, baseline.pooled_qoe);
    EXPECT_DOUBLE_EQ(r.pooled_average_power_w, baseline.pooled_average_power_w);
    EXPECT_DOUBLE_EQ(r.frame_loss.mean(), baseline.frame_loss.mean());
    EXPECT_DOUBLE_EQ(r.frame_loss.stddev(), baseline.frame_loss.stddev());
    EXPECT_EQ(r.switches_per_run, baseline.switches_per_run);
  }
  set_worker_count(0);
}

TEST(ParallelRepeated, TraceFactoryOverloadStaysDeterministicToo) {
  auto factory = [] { return std::make_unique<StaticPolicy>(mode(800.0)); };
  const WorkloadConfig wl = workload(3.0);
  auto traces = [&wl](std::uint64_t seed) { return WorkloadTrace(wl, seed); };

  set_worker_count(4);
  const RepeatedRunResult parallel = run_repeated(traces, factory, ServerConfig{}, 4, 77);
  set_worker_count(1);
  const RepeatedRunResult serial = run_repeated(traces, factory, ServerConfig{}, 4, 77);
  set_worker_count(0);

  EXPECT_TRUE(sim::identical(parallel.mean, serial.mean));
  EXPECT_DOUBLE_EQ(parallel.pooled_qoe, serial.pooled_qoe);
}

}  // namespace
}  // namespace adaflow::edge

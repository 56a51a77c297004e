#include "adaflow/core/oracle_policy.hpp"

#include <gtest/gtest.h>

#include "adaflow/edge/server.hpp"

namespace adaflow::core {
namespace {

AcceleratorLibrary oracle_library() {
  AcceleratorLibrary lib;
  lib.model_name = "M";
  lib.dataset_name = "D";
  lib.reconfig_time_s = 0.1;
  lib.finn_power_busy_w = 1.0;
  lib.finn_power_idle_w = 0.7;
  struct Row {
    int rate;
    double acc;
    double fps;
  };
  for (const Row& r : {Row{0, 0.90, 500}, Row{40, 0.85, 900}, Row{70, 0.82, 2000}}) {
    ModelVersion v;
    v.version = "M@p" + std::to_string(r.rate);
    v.requested_rate = r.rate / 100.0;
    v.accuracy = r.acc;
    v.fps_fixed = r.fps;
    v.fps_flexible = r.fps * 0.995;
    v.power_busy_fixed_w = 1.0;
    v.power_idle_fixed_w = 0.7;
    v.power_busy_flexible_w = 1.2;
    v.power_idle_flexible_w = 0.8;
    v.flexible_switch_time_s = 0.001;
    lib.versions.push_back(v);
  }
  lib.base_accuracy = 0.90;
  return lib;
}

TEST(Oracle, InitialModeMatchesTrueInitialRate) {
  AcceleratorLibrary lib = oracle_library();
  edge::WorkloadTrace trace(edge::scenario1(), 3);
  OraclePolicy oracle(lib, RuntimeManagerConfig{}, trace);
  edge::ServingMode mode = oracle.initial_mode();
  // The mode must actually serve the true initial rate (or be the fastest).
  EXPECT_GE(mode.fps, std::min(trace.rate_at(0.0), 2000.0 * 0.9));
}

TEST(Oracle, TimeToNextChange) {
  AcceleratorLibrary lib = oracle_library();
  edge::WorkloadTrace trace(edge::scenario1(), 3);  // boundaries at 0,5,10,15,20
  RuntimeManagerConfig rmc;
  OraclePolicy oracle(lib, rmc, trace);
  EXPECT_NEAR(oracle.time_to_next_change(1.0), 4.0, 1e-9);
  EXPECT_NEAR(oracle.time_to_next_change(14.5), 0.5, 1e-9);
  EXPECT_TRUE(std::isinf(oracle.time_to_next_change(21.0)));
}

TEST(Oracle, StablePhaseUsesFixedUnstableUsesFlexible) {
  AcceleratorLibrary lib = oracle_library();
  edge::WorkloadTrace trace(edge::scenario1_plus_2(), 7);
  RuntimeManagerConfig rmc;  // 10 x 0.1 s = 1 s lookahead requirement
  OraclePolicy oracle(lib, rmc, trace);
  edge::RunMetrics m = edge::run_simulation(trace, oracle, edge::ServerConfig{}, 9);
  // In the unstable phase (0.5 s segments < 1 s) the oracle must not
  // reconfigure; every late switch is flexible.
  for (const edge::SwitchRecord& s : m.switches) {
    if (s.time_s > 15.5) {
      EXPECT_EQ(s.accelerator, "Flexible") << "at t=" << s.time_s;
    }
  }
}

TEST(Oracle, BeatsOrMatchesFinnOnLoss) {
  AcceleratorLibrary lib = oracle_library();
  RuntimeManagerConfig rmc;
  double oracle_loss = 0.0;
  double finn_loss = 0.0;
  for (int r = 0; r < 5; ++r) {
    edge::WorkloadTrace trace(edge::scenario2(), 100 + static_cast<std::uint64_t>(r));
    OraclePolicy oracle(lib, rmc, trace);
    oracle_loss += edge::run_simulation(trace, oracle, edge::ServerConfig{}, r).frame_loss();
    StaticFinnPolicy finn(lib);
    finn_loss += edge::run_simulation(trace, finn, edge::ServerConfig{}, r).frame_loss();
  }
  EXPECT_LT(oracle_loss, finn_loss);
}

}  // namespace
}  // namespace adaflow::core

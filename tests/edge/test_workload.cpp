#include "adaflow/edge/workload.hpp"

#include "adaflow/common/error.hpp"
#include "adaflow/common/rng.hpp"
#include "adaflow/sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <vector>

namespace adaflow::edge {
namespace {

TEST(Workload, PaperScenarios) {
  WorkloadConfig s1 = scenario1();
  ASSERT_EQ(s1.phases.size(), 1u);
  EXPECT_DOUBLE_EQ(s1.phases[0].deviation, 0.30);
  EXPECT_DOUBLE_EQ(s1.phases[0].interval_s, 5.0);
  EXPECT_DOUBLE_EQ(s1.base_rate(), 600.0);  // 20 devices x 30 FPS

  WorkloadConfig s2 = scenario2();
  EXPECT_DOUBLE_EQ(s2.phases[0].deviation, 0.70);
  EXPECT_DOUBLE_EQ(s2.phases[0].interval_s, 0.5);

  WorkloadConfig s12 = scenario1_plus_2();
  ASSERT_EQ(s12.phases.size(), 2u);
  EXPECT_DOUBLE_EQ(s12.phases[0].duration_s, 15.0);
  EXPECT_DOUBLE_EQ(s12.phases[1].duration_s, 10.0);
  EXPECT_DOUBLE_EQ(WorkloadTrace(s12, 1).duration(), 25.0);
}

TEST(Workload, TraceRespectsDeviationBounds) {
  WorkloadTrace trace(scenario2(), 5);
  for (double t = 0.0; t < trace.duration(); t += 0.1) {
    const double r = trace.rate_at(t);
    EXPECT_GE(r, 600.0 * 0.3 - 1e-9);
    EXPECT_LE(r, 600.0 * 1.7 + 1e-9);
  }
}

TEST(Workload, Scenario1ChangesEveryFiveSeconds) {
  WorkloadTrace trace(scenario1(), 7);
  // Within one 5s window the rate is constant.
  EXPECT_DOUBLE_EQ(trace.rate_at(0.1), trace.rate_at(4.9));
  EXPECT_DOUBLE_EQ(trace.rate_at(5.1), trace.rate_at(9.9));
  EXPECT_EQ(trace.change_times().size(), 5u);
}

TEST(Workload, Scenario2HasManySegments) {
  WorkloadTrace trace(scenario2(), 7);
  EXPECT_EQ(trace.change_times().size(), 50u);  // 25 s / 0.5 s
}

TEST(Workload, DeterministicPerSeed) {
  WorkloadTrace a(scenario2(), 11);
  WorkloadTrace b(scenario2(), 11);
  for (double t = 0.0; t < 25.0; t += 0.25) {
    EXPECT_DOUBLE_EQ(a.rate_at(t), b.rate_at(t));
  }
  WorkloadTrace c(scenario2(), 12);
  bool any_different = false;
  for (double t = 0.0; t < 25.0; t += 0.25) {
    any_different |= a.rate_at(t) != c.rate_at(t);
  }
  EXPECT_TRUE(any_different);
}

TEST(Workload, CompositeScenarioShiftsBehaviourAt15s) {
  WorkloadTrace trace(scenario1_plus_2(), 3);
  // Stable phase: constant over [10, 15).
  EXPECT_DOUBLE_EQ(trace.rate_at(10.2), trace.rate_at(14.8));
  // Unstable phase boundaries every 0.5 s after 15 s; count segments.
  EXPECT_EQ(trace.change_times().size(), 3u + 20u);
  EXPECT_DOUBLE_EQ(trace.duration(), 25.0);
}

TEST(Workload, EmptyPhasesRejected) {
  WorkloadConfig c;
  EXPECT_THROW(WorkloadTrace(c, 1), ConfigError);
}

TEST(Workload, RejectsNonPositiveDevices) {
  WorkloadConfig c = scenario1();
  c.devices = 0;
  EXPECT_THROW(WorkloadTrace(c, 1), ConfigError);
  c.devices = -3;
  EXPECT_THROW(WorkloadTrace(c, 1), ConfigError);
}

TEST(Workload, RejectsBadPerDeviceRate) {
  WorkloadConfig c = scenario1();
  c.fps_per_device = 0.0;
  EXPECT_THROW(WorkloadTrace(c, 1), ConfigError);
  c.fps_per_device = -30.0;
  EXPECT_THROW(WorkloadTrace(c, 1), ConfigError);
  c.fps_per_device = std::nan("");
  EXPECT_THROW(WorkloadTrace(c, 1), ConfigError);
  c.fps_per_device = std::numeric_limits<double>::infinity();
  EXPECT_THROW(WorkloadTrace(c, 1), ConfigError);
}

TEST(Workload, RejectsBadDeviation) {
  WorkloadConfig c = scenario1();
  c.phases[0].deviation = -0.1;
  EXPECT_THROW(WorkloadTrace(c, 1), ConfigError);
  c.phases[0].deviation = 1.5;  // a >100% deviation would go negative
  EXPECT_THROW(WorkloadTrace(c, 1), ConfigError);
  c.phases[0].deviation = std::nan("");
  EXPECT_THROW(WorkloadTrace(c, 1), ConfigError);
  c.phases[0].deviation = 1.0;  // boundary is allowed
  EXPECT_NO_THROW(WorkloadTrace(c, 1));
}

TEST(Workload, RejectsBadInterval) {
  WorkloadConfig c = scenario1();
  c.phases[0].interval_s = 0.0;
  EXPECT_THROW(WorkloadTrace(c, 1), ConfigError);
  c.phases[0].interval_s = -5.0;
  EXPECT_THROW(WorkloadTrace(c, 1), ConfigError);
  c.phases[0].interval_s = std::nan("");
  EXPECT_THROW(WorkloadTrace(c, 1), ConfigError);
}

TEST(Workload, RejectsBadDuration) {
  WorkloadConfig c = scenario1();
  c.phases[0].duration_s = 0.0;
  EXPECT_THROW(WorkloadTrace(c, 1), ConfigError);
  c.phases[0].duration_s = -25.0;
  EXPECT_THROW(WorkloadTrace(c, 1), ConfigError);
  c.phases[0].duration_s = std::nan("");
  EXPECT_THROW(WorkloadTrace(c, 1), ConfigError);
}

TEST(Workload, ValidationErrorNamesPhaseAndField) {
  WorkloadConfig c = scenario1_plus_2();
  c.phases[1].interval_s = -1.0;
  try {
    c.validate();
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("phase 1"), std::string::npos);
    EXPECT_NE(msg.find("interval_s"), std::string::npos);
  }
}

TEST(Workload, RejectsIntervalLongerThanDuration) {
  // A phase whose re-draw interval exceeds its duration silently degenerates
  // to a single constant segment; validate() must reject it, naming the
  // phase.
  WorkloadConfig c = scenario1_plus_2();
  c.phases[1].interval_s = c.phases[1].duration_s + 1.0;
  try {
    c.validate();
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("phase 1"), std::string::npos);
    EXPECT_NE(msg.find("interval_s"), std::string::npos);
  }
  // The boundary case — one deliberate flat segment — stays legal.
  c.phases[1].interval_s = c.phases[1].duration_s;
  EXPECT_NO_THROW(c.validate());
}

TEST(WorkloadTrace, SegmentsCtorPiecewiseConstant) {
  WorkloadTrace trace({0.0, 2.0, 5.0}, {100.0, 300.0, 200.0}, 8.0);
  EXPECT_DOUBLE_EQ(trace.rate_at(0.0), 100.0);
  EXPECT_DOUBLE_EQ(trace.rate_at(1.99), 100.0);
  EXPECT_DOUBLE_EQ(trace.rate_at(2.0), 300.0);
  EXPECT_DOUBLE_EQ(trace.rate_at(4.5), 300.0);
  EXPECT_DOUBLE_EQ(trace.rate_at(7.9), 200.0);
  EXPECT_DOUBLE_EQ(trace.duration(), 8.0);
  EXPECT_EQ(trace.segment_rates().size(), 3u);
}

TEST(WorkloadTrace, SegmentsCtorValidation) {
  EXPECT_THROW(WorkloadTrace({}, {}, 5.0), ConfigError);                       // empty
  EXPECT_THROW(WorkloadTrace({1.0}, {100.0}, 5.0), ConfigError);               // starts late
  EXPECT_THROW(WorkloadTrace({0.0, 2.0}, {100.0}, 5.0), ConfigError);          // arity
  EXPECT_THROW(WorkloadTrace({0.0, 2.0, 2.0}, {1.0, 2.0, 3.0}, 5.0), ConfigError);  // not ascending
  EXPECT_THROW(WorkloadTrace({0.0, 2.0}, {100.0, -1.0}, 5.0), ConfigError);    // negative rate
  EXPECT_THROW(WorkloadTrace({0.0, 2.0}, {100.0, 200.0}, 2.0), ConfigError);   // duration too short
}

TEST(WorkloadTrace, FromCsvRoundTrip) {
  const std::string path = ::testing::TempDir() + "/adaflow_trace.csv";
  {
    std::ofstream out(path);
    out << "# camera aggregate trace\n";
    out << "t,rate\n";
    out << "0,120\n";
    out << "1.5,480  # ramp\n";
    out << "\n";
    out << "3.0,240\n";
  }
  const WorkloadTrace trace = WorkloadTrace::from_csv(path, 5.0);
  EXPECT_DOUBLE_EQ(trace.rate_at(0.5), 120.0);
  EXPECT_DOUBLE_EQ(trace.rate_at(2.0), 480.0);
  EXPECT_DOUBLE_EQ(trace.rate_at(4.5), 240.0);
  EXPECT_DOUBLE_EQ(trace.duration(), 5.0);
}

TEST(WorkloadTrace, FromCsvDefaultDurationAndBackExtension) {
  const std::string path = ::testing::TempDir() + "/adaflow_trace_late.csv";
  {
    std::ofstream out(path);
    out << "2.0,100\n4.0,200\n6.0,300\n";
  }
  const WorkloadTrace trace = WorkloadTrace::from_csv(path);
  // Starts after t=0: extended backwards at the opening rate.
  EXPECT_DOUBLE_EQ(trace.rate_at(0.0), 100.0);
  // Default duration: one median step (2 s) past the last boundary.
  EXPECT_DOUBLE_EQ(trace.duration(), 8.0);
}

TEST(WorkloadTrace, FromCsvErrorsNameTheLine) {
  const std::string path = ::testing::TempDir() + "/adaflow_trace_bad.csv";
  {
    std::ofstream out(path);
    out << "0,100\n1.0,oops\n";
  }
  try {
    WorkloadTrace::from_csv(path);
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find(":2:"), std::string::npos);
  }
  {
    std::ofstream out(path);
    out << "0,100\n2.0,200\n1.0,300\n";  // not ascending
  }
  EXPECT_THROW(WorkloadTrace::from_csv(path), ConfigError);
  EXPECT_THROW(WorkloadTrace::from_csv(::testing::TempDir() + "/does_not_exist.csv"),
               ConfigError);
}

TEST(WorkloadTrace, DiurnalBoundsAndDeterminism) {
  const WorkloadTrace a = diurnal_trace(200.0, 800.0, 40.0, 80.0, 0.5, 0.05, 9);
  const WorkloadTrace b = diurnal_trace(200.0, 800.0, 40.0, 80.0, 0.5, 0.05, 9);
  for (double t = 0.0; t < a.duration(); t += 0.25) {
    EXPECT_GE(a.rate_at(t), 200.0 * 0.95 - 1e-9);
    EXPECT_LE(a.rate_at(t), 800.0 * 1.05 + 1e-9);
    EXPECT_DOUBLE_EQ(a.rate_at(t), b.rate_at(t));
  }
  // Cosine starting at the trough: the opening rate sits near the low end,
  // a half period later it peaks.
  const WorkloadTrace clean = diurnal_trace(200.0, 800.0, 40.0, 80.0, 0.5, 0.0, 9);
  EXPECT_NEAR(clean.rate_at(0.1), 200.0, 5.0);
  EXPECT_NEAR(clean.rate_at(20.0), 800.0, 5.0);
}

TEST(WorkloadTrace, FlashCrowdShape) {
  const WorkloadTrace trace =
      flash_crowd_trace(250.0, 1250.0, 8.0, 3.0, 8.0, 30.0, 0.5, 0.0, 3);
  EXPECT_DOUBLE_EQ(trace.rate_at(1.0), 250.0);            // before onset
  EXPECT_GT(trace.rate_at(10.0), 600.0);                  // mid-ramp
  EXPECT_DOUBLE_EQ(trace.rate_at(12.0), 1250.0);          // hold
  EXPECT_DOUBLE_EQ(trace.rate_at(29.0), 250.0);           // back at base
  EXPECT_THROW(flash_crowd_trace(500.0, 100.0, 8.0, 3.0, 8.0, 30.0, 0.5, 0.0, 3),
               ConfigError);  // peak below base
  EXPECT_THROW(flash_crowd_trace(250.0, 1250.0, 8.0, 3.0, 8.0, 30.0, 0.5, 1.5, 3),
               ConfigError);  // jitter >= 1
}

// --- PoissonArrivals contract ------------------------------------------------

/// The oracle: the online arrival loop the runners chained on their event
/// queues before the shared arrival source existed, run against a bare
/// EventQueue. A zero rate re-checks 0.05 s later as a queued event; an
/// arrival schedules its successor when it fires.
std::vector<double> reference_arrivals(const WorkloadTrace& trace, std::uint64_t seed,
                                       double horizon_s,
                                       const PoissonArrivals::RateFactor& factor) {
  sim::EventQueue queue;
  Rng rng(seed);
  std::vector<double> times;
  std::function<void()> schedule_next = [&] {
    double rate = trace.rate_at(queue.now());
    if (factor) {
      rate *= factor(queue.now());
    }
    if (rate <= 0.0) {
      queue.schedule_in(0.05, [&] { schedule_next(); });
      return;
    }
    const double when = queue.now() + rng.exponential(rate);
    if (when <= horizon_s) {
      queue.schedule_at(when, [&] {
        times.push_back(queue.now());
        schedule_next();
      });
    }
  };
  schedule_next();
  queue.run_until(horizon_s);
  return times;
}

std::vector<double> drain(PoissonArrivals& arrivals) {
  std::vector<double> times;
  while (const std::optional<double> t = arrivals.next()) {
    times.push_back(*t);
  }
  return times;
}

std::vector<std::uint64_t> bits(const std::vector<double>& v) {
  std::vector<std::uint64_t> out;
  for (const double x : v) {
    out.push_back(std::bit_cast<std::uint64_t>(x));
  }
  return out;
}

/// Zero-rate stretches at the start, in the middle and at the end.
WorkloadTrace gapped_trace() {
  return WorkloadTrace({0.0, 0.7, 2.0, 2.6, 4.1}, {0.0, 400.0, 0.0, 900.0, 0.0}, 5.0);
}

TEST(PoissonArrivals, MatchesTheOnlineLoopBitForBitThroughZeroRateStretches) {
  const WorkloadTrace trace = gapped_trace();
  for (const std::uint64_t seed : {1u, 2u, 99u}) {
    PoissonArrivals arrivals(trace, seed, trace.duration());
    const std::vector<double> got = drain(arrivals);
    ASSERT_GT(got.size(), 500u);
    EXPECT_EQ(bits(got), bits(reference_arrivals(trace, seed, trace.duration(), {})));
    // Nothing lands in the leading gap, and nothing after the last draw.
    EXPECT_GE(got.front(), 0.7);
    EXPECT_LE(got.back(), trace.duration());
    EXPECT_FALSE(arrivals.next().has_value());
  }
  const WorkloadTrace scenario(scenario2(), 4);
  PoissonArrivals arrivals(scenario, 8, scenario.duration());
  EXPECT_EQ(bits(drain(arrivals)), bits(reference_arrivals(scenario, 8, scenario.duration(), {})));
}

TEST(PoissonArrivals, HorizonShorterThanTheTraceCutsTheStream) {
  const WorkloadTrace trace = gapped_trace();
  PoissonArrivals arrivals(trace, 5, 3.0);
  const std::vector<double> got = drain(arrivals);
  ASSERT_FALSE(got.empty());
  EXPECT_LE(got.back(), 3.0);
  EXPECT_EQ(bits(got), bits(reference_arrivals(trace, 5, 3.0, {})));
  // The cut stream is a prefix of the full one: the horizon moves no draw.
  PoissonArrivals full(trace, 5, trace.duration());
  const std::vector<double> all = drain(full);
  ASSERT_GT(all.size(), got.size());
  EXPECT_EQ(bits(got), bits(std::vector<double>(all.begin(), all.begin() + got.size())));
}

TEST(PoissonArrivals, HorizonEndIsInclusive) {
  const WorkloadTrace trace = gapped_trace();
  PoissonArrivals full(trace, 6, trace.duration());
  const std::vector<double> all = drain(full);
  ASSERT_GT(all.size(), 10u);
  // A horizon exactly on an arrival keeps that arrival as the last one.
  const double horizon = all[all.size() / 2];
  PoissonArrivals cut(trace, 6, horizon);
  const std::vector<double> got = drain(cut);
  ASSERT_EQ(got.size(), all.size() / 2 + 1);
  EXPECT_EQ(got.back(), horizon);
  EXPECT_EQ(bits(got), bits(reference_arrivals(trace, 6, horizon, {})));
  // A zero-rate step that lands exactly on the horizon still reads the rate
  // there, as the online loop's re-check event at t_end fires
  // (0.05 + 0.05 == 0.1 exactly in binary floating point).
  const WorkloadTrace silent({0.0}, {0.0}, 1.0);
  std::vector<double> calls;
  PoissonArrivals quiet(silent, 1, 0.1, [&calls](double t) {
    calls.push_back(t);
    return 1.0;
  });
  EXPECT_FALSE(quiet.next().has_value());
  EXPECT_EQ(calls, (std::vector<double>{0.0, 0.05, 0.1}));
}

TEST(PoissonArrivals, RateFactorChangingMidStreamMatchesTheOnlineLoop) {
  const WorkloadTrace trace({0.0, 1.2, 3.0}, {300.0, 0.0, 500.0}, 5.0);
  // A burst, then a factor of 0 that silences a non-zero segment, then 1.
  // Each side records the times it asked for the factor: the source must
  // consult it exactly where the online loop did.
  auto make_factor = [](std::vector<double>& calls) {
    return [&calls](double t) {
      calls.push_back(t);
      if (t >= 0.5 && t < 1.0) {
        return 3.0;
      }
      return t >= 3.4 && t < 3.9 ? 0.0 : 1.0;
    };
  };
  std::vector<double> got_calls;
  std::vector<double> ref_calls;
  PoissonArrivals arrivals(trace, 12, trace.duration(), make_factor(got_calls));
  const std::vector<double> got = drain(arrivals);
  const std::vector<double> want =
      reference_arrivals(trace, 12, trace.duration(), make_factor(ref_calls));
  EXPECT_EQ(bits(got), bits(want));
  EXPECT_EQ(bits(got_calls), bits(ref_calls));
  // The burst shows: [0.5, 1.0) carries about 3x the arrivals of [0, 0.5).
  const auto count_in = [&got](double a, double b) {
    return std::count_if(got.begin(), got.end(), [a, b](double t) { return t >= a && t < b; });
  };
  EXPECT_GT(count_in(0.5, 1.0), 2 * count_in(0.0, 0.5));
  EXPECT_EQ(count_in(3.45, 3.9), 0);
}

}  // namespace
}  // namespace adaflow::edge

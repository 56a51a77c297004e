#include "adaflow/forecast/forecaster.hpp"

#include "adaflow/common/error.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

namespace adaflow::forecast {
namespace {

TEST(Forecaster, NamesRoundTrip) {
  for (ForecasterKind kind : {ForecasterKind::kNaive, ForecasterKind::kEwma,
                              ForecasterKind::kHoltWinters}) {
    EXPECT_EQ(forecaster_kind_from_name(forecaster_kind_name(kind)), kind);
  }
  EXPECT_EQ(forecaster_kind_from_name("holt"), ForecasterKind::kHoltWinters);
  EXPECT_THROW(forecaster_kind_from_name("arima"), NotFoundError);
}

TEST(Forecaster, NaiveCarriesLastValueForward) {
  auto f = make_forecaster(ForecasterKind::kNaive);
  EXPECT_DOUBLE_EQ(f->forecast(1).rate, 0.0);  // no observations yet
  f->observe(100.0);
  f->observe(250.0);
  EXPECT_DOUBLE_EQ(f->forecast(1).rate, 250.0);
  EXPECT_DOUBLE_EQ(f->forecast(5).rate, 250.0);  // horizon-independent
  EXPECT_EQ(f->observations(), 2);
}

TEST(Forecaster, EwmaGoldenSequence) {
  // alpha = 0.35: level after 100, 200, 300 is 100 -> 135 -> 192.75.
  auto f = make_forecaster(ForecasterKind::kEwma);
  f->observe(100.0);
  EXPECT_DOUBLE_EQ(f->forecast(1).rate, 100.0);
  f->observe(200.0);
  EXPECT_DOUBLE_EQ(f->forecast(1).rate, 135.0);
  f->observe(300.0);
  EXPECT_DOUBLE_EQ(f->forecast(1).rate, 192.75);
}

TEST(Forecaster, EwmaIntervalFromErrorEwma) {
  // One-step errors: |200-100| = 100 (first error, taken as-is), then
  // |300-135| = 165, smoothed with error weight 0.3 -> MAE 119.5. At 2.5
  // MAE units and horizon 1 the half-width is 298.75.
  auto f = make_forecaster(ForecasterKind::kEwma);
  f->observe(100.0);
  f->observe(200.0);
  f->observe(300.0);
  const Forecast fc = f->forecast(1);
  EXPECT_DOUBLE_EQ(fc.rate, 192.75);
  EXPECT_DOUBLE_EQ(fc.upper, 192.75 + 298.75);
  EXPECT_DOUBLE_EQ(fc.lower, 0.0);  // 192.75 - 298.75 clamps at zero
  // Horizon widens the interval by sqrt(h).
  const Forecast fc4 = f->forecast(4);
  EXPECT_DOUBLE_EQ(fc4.upper, 192.75 + 597.5);
}

TEST(Forecaster, HoltWintersGoldenSequence) {
  // alpha = 0.35, beta = 0.15 on 100, 200, 300:
  //   obs 1: L = 100, T = 0
  //   obs 2: L = 0.35*200 + 0.65*(100+0) = 135, T = 0.15*35 + 0 = 5.25
  //   obs 3: L = 0.35*300 + 0.65*(135+5.25) = 196.1625,
  //          T = 0.15*61.1625 + 0.85*5.25 = 13.636875
  auto f = make_forecaster(ForecasterKind::kHoltWinters);
  f->observe(100.0);
  f->observe(200.0);
  f->observe(300.0);
  EXPECT_DOUBLE_EQ(f->forecast(1).rate, 196.1625 + 13.636875);
  EXPECT_DOUBLE_EQ(f->forecast(2).rate, 196.1625 + 2.0 * 13.636875);
}

TEST(Forecaster, HoltWintersLocksOntoLinearRamp) {
  auto hw = make_forecaster(ForecasterKind::kHoltWinters);
  auto naive = make_forecaster(ForecasterKind::kNaive);
  double last = 0.0;
  for (int i = 1; i <= 200; ++i) {
    last = 100.0 + 10.0 * i;
    hw->observe(last);
    naive->observe(last);
  }
  const double truth_3_ahead = last + 30.0;
  EXPECT_LT(std::fabs(hw->forecast(3).rate - truth_3_ahead),
            std::fabs(naive->forecast(3).rate - truth_3_ahead));
  EXPECT_NEAR(hw->forecast(3).rate, truth_3_ahead, 5.0);
}

TEST(Forecaster, RateAndLowerNeverNegative) {
  auto f = make_forecaster(ForecasterKind::kHoltWinters);
  for (int i = 0; i < 20; ++i) {
    f->observe(std::max(0.0, 100.0 - 20.0 * i));  // steep fall to zero
  }
  const Forecast fc = f->forecast(5);
  EXPECT_GE(fc.rate, 0.0);
  EXPECT_GE(fc.lower, 0.0);
  EXPECT_GE(fc.upper, fc.rate);
}

TEST(Forecaster, RejectsNonPositiveHorizon) {
  auto f = make_forecaster(ForecasterKind::kEwma);
  f->observe(100.0);
  EXPECT_THROW(f->forecast(0), ConfigError);
  EXPECT_THROW(f->forecast(-3), ConfigError);
}

TEST(Forecaster, ResetClearsState) {
  for (ForecasterKind kind : {ForecasterKind::kNaive, ForecasterKind::kEwma,
                              ForecasterKind::kHoltWinters}) {
    auto f = make_forecaster(kind);
    f->observe(100.0);
    f->observe(900.0);
    f->reset();
    EXPECT_EQ(f->observations(), 0);
    EXPECT_DOUBLE_EQ(f->forecast(1).rate, 0.0);
    EXPECT_DOUBLE_EQ(f->forecast(1).upper, 0.0);
  }
}

TEST(Forecaster, DeterministicReplay) {
  auto a = make_forecaster(ForecasterKind::kHoltWinters);
  auto b = make_forecaster(ForecasterKind::kHoltWinters);
  for (int i = 0; i < 100; ++i) {
    const double rate = 500.0 + 200.0 * std::sin(0.3 * i) + (i % 7) * 11.0;
    a->observe(rate);
    b->observe(rate);
    EXPECT_DOUBLE_EQ(a->forecast(3).rate, b->forecast(3).rate);
    EXPECT_DOUBLE_EQ(a->forecast(3).upper, b->forecast(3).upper);
  }
}

}  // namespace
}  // namespace adaflow::forecast

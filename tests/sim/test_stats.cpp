#include "adaflow/sim/stats.hpp"

#include "adaflow/common/error.hpp"
#include "adaflow/sim/fields.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace adaflow::sim {
namespace {

TEST(RunningStat, MeanAndStddev) {
  RunningStat s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    s.add(v);
  }
  EXPECT_EQ(s.count(), 8);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStat, SingleSampleHasZeroStddev) {
  RunningStat s;
  s.add(3.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
  EXPECT_DOUBLE_EQ(s.mean(), 3.0);
}

TEST(TimeSeries, TimeOfSamples) {
  TimeSeries ts;
  ts.interval_s = 0.5;
  ts.values = {1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(ts.time_of(0), 0.5);
  EXPECT_DOUBLE_EQ(ts.time_of(2), 1.5);
}

TEST(AverageSeries, ElementwiseMean) {
  TimeSeries a;
  a.values = {1.0, 2.0, 3.0};
  TimeSeries b;
  b.values = {3.0, 4.0, 5.0};
  TimeSeries avg = average_series({a, b});
  EXPECT_EQ(avg.values, (std::vector<double>{2.0, 3.0, 4.0}));
}

TEST(AverageSeries, TruncatesToShortest) {
  TimeSeries a;
  a.values = {1.0, 2.0, 3.0};
  TimeSeries b;
  b.values = {3.0, 4.0};
  TimeSeries avg = average_series({a, b});
  EXPECT_EQ(avg.values.size(), 2u);
}

TEST(AverageSeries, EmptyInputThrows) {
  EXPECT_THROW(average_series({}), ConfigError);
}

TEST(AverageSeries, UnequalLengthsAverageTheFullRunCount) {
  // Truncation keeps the divisor honest: every output sample averages ALL
  // runs, never a mix of 3-run and 2-run sums.
  TimeSeries a;
  a.values = {3.0, 3.0, 99.0};
  TimeSeries b;
  b.values = {6.0, 6.0};
  TimeSeries c;
  c.values = {9.0, 9.0, 99.0, 99.0};
  TimeSeries avg = average_series({a, b, c});
  EXPECT_EQ(avg.values, (std::vector<double>{6.0, 6.0}));
}

TEST(AverageSeries, AnyEmptySeriesYieldsAnEmptyResult) {
  TimeSeries a;
  a.values = {1.0, 2.0};
  TimeSeries b;  // empty: shortest run has zero samples
  TimeSeries avg = average_series({a, b});
  EXPECT_TRUE(avg.values.empty());
}

TEST(AverageSeries, IntervalComesFromTheFirstSeries) {
  TimeSeries a;
  a.interval_s = 0.25;
  a.values = {1.0};
  TimeSeries b;
  b.interval_s = 0.5;
  b.values = {2.0};
  EXPECT_DOUBLE_EQ(average_series({a, b}).interval_s, 0.25);
}

TEST(AverageSeries, SingleRunIsIdentity) {
  TimeSeries a;
  a.values = {1.5, -2.5, 0.0};
  EXPECT_EQ(average_series({a}).values, a.values);
}

TEST(Percentile, NearestRankOnASmallVector) {
  const std::vector<double> v = {5.0, 1.0, 4.0, 2.0, 3.0};  // sorted: 1..5
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(percentile(v, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.95), 5.0);  // rank ceil(0.95 * 5) = 5
}

// The exact small-N contract of the nearest-rank rule, spelled out in
// stats.hpp: sorted[clamp(ceil(q*N) - 1, 0, N-1)], no interpolation.
TEST(Percentile, SingleSampleReturnsItForEveryQuantile) {
  const std::vector<double> v = {7.5};
  for (double q : {0.0, 0.5, 0.95, 0.99, 0.999, 1.0}) {
    EXPECT_DOUBLE_EQ(percentile(v, q), 7.5) << "q=" << q;
  }
}

TEST(Percentile, TwoSamplesSplitAtTheMedian) {
  const std::vector<double> v = {10.0, 20.0};
  // ceil(q*2) <= 1 for q <= 0.5 -> minimum; anything above -> maximum.
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.5), 10.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.51), 20.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.999), 20.0);
  EXPECT_DOUBLE_EQ(percentile(v, 1.0), 20.0);
}

TEST(Percentile, P999SaturatesToTheMaximumBelowAThousandSamples) {
  // N < 1/(1-q): the rank ceil(0.999*N) clamps to N, so p999 of any run
  // shorter than 1000 samples is exactly the maximum.
  std::vector<double> v;
  for (int i = 1; i <= 999; ++i) {
    v.push_back(static_cast<double>(i));
  }
  EXPECT_DOUBLE_EQ(percentile(v, 0.999), 999.0);
  // At exactly N = 1000 the rank no longer saturates: ceil(999.0) = 999.
  v.push_back(1000.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.999), 999.0);
}

TEST(Percentile, EmptyVectorIsZero) { EXPECT_DOUBLE_EQ(percentile({}, 0.95), 0.0); }

TEST(Percentile, OutOfRangeQuantileThrows) {
  EXPECT_THROW(percentile({1.0}, -0.1), ConfigError);
  EXPECT_THROW(percentile({1.0}, 1.1), ConfigError);
}

TEST(Percentile, DoesNotReorderTheInput) {
  const std::vector<double> v = {3.0, 1.0, 2.0};
  std::vector<double> copy = v;
  percentile(copy, 0.5);
  EXPECT_EQ(copy, v);
}

TEST(LatencyHistogram, EmptyHistogramReportsZeros) {
  LatencyHistogram h;
  EXPECT_EQ(h.count(), 0);
  EXPECT_DOUBLE_EQ(h.mean_s(), 0.0);
  EXPECT_DOUBLE_EQ(h.min_s(), 0.0);
  EXPECT_DOUBLE_EQ(h.max_s(), 0.0);
  EXPECT_DOUBLE_EQ(h.percentile(0.99), 0.0);
}

TEST(LatencyHistogram, TracksCountSumMinMaxExactly) {
  LatencyHistogram h;
  for (double s : {0.010, 0.020, 0.040, 0.500}) {
    h.record(s);
  }
  EXPECT_EQ(h.count(), 4);
  EXPECT_DOUBLE_EQ(h.sum_s(), 0.57);
  EXPECT_DOUBLE_EQ(h.min_s(), 0.010);
  EXPECT_DOUBLE_EQ(h.max_s(), 0.500);
}

TEST(LatencyHistogram, PercentileErrorBoundedByBucketWidth) {
  LatencyHistogram h;
  std::vector<double> values;
  for (int i = 1; i <= 2000; ++i) {
    const double s = 1e-3 * static_cast<double>(i);  // 1ms .. 2s
    values.push_back(s);
    h.record(s);
  }
  for (double q : {0.5, 0.9, 0.99, 0.999}) {
    const double exact = percentile(values, q);
    // One geometric bucket is ~9% wide; interpolation keeps the estimate
    // inside the containing bucket.
    EXPECT_NEAR(h.percentile(q), exact, exact * 0.10) << "q=" << q;
  }
}

TEST(LatencyHistogram, SmallCountPercentilesFollowTheNearestRankRule) {
  LatencyHistogram h;
  h.record(0.030);
  // N=1: every quantile is the single sample (exactly, via the max clamp).
  EXPECT_DOUBLE_EQ(h.percentile(0.999), 0.030);
  EXPECT_DOUBLE_EQ(h.percentile(0.0), 0.030);
  h.record(0.300);
  // N=2 at q=0.999: rank saturates to the maximum, reported exactly.
  EXPECT_DOUBLE_EQ(h.percentile(0.999), 0.300);
}

TEST(LatencyHistogram, OverflowBucketReportsTheExactMaximum) {
  LatencyHistogram h;
  for (int i = 0; i < 100; ++i) {
    h.record(1e9);  // far past the last finite bucket boundary
  }
  EXPECT_DOUBLE_EQ(h.percentile(0.999), 1e9);
  EXPECT_DOUBLE_EQ(h.max_s(), 1e9);
}

TEST(LatencyHistogram, NegativeSamplesClampToZero) {
  LatencyHistogram h;
  h.record(-1.0);
  EXPECT_EQ(h.count(), 1);
  EXPECT_DOUBLE_EQ(h.min_s(), 0.0);
  EXPECT_DOUBLE_EQ(h.percentile(0.5), 0.0);
}

TEST(LatencyHistogram, OutOfRangeQuantileThrows) {
  LatencyHistogram h;
  h.record(0.01);
  EXPECT_THROW(h.percentile(-0.1), ConfigError);
  EXPECT_THROW(h.percentile(1.1), ConfigError);
}

TEST(LatencyHistogram, MergeCombinesAndIdenticalDetectsDrift) {
  LatencyHistogram a;
  LatencyHistogram b;
  for (double s : {0.001, 0.010, 0.100}) {
    a.record(s);
    b.record(s);
  }
  EXPECT_TRUE(sim::identical(a, b));
  LatencyHistogram merged;
  merged.merge(a);
  merged.merge(b);
  EXPECT_EQ(merged.count(), 6);
  EXPECT_DOUBLE_EQ(merged.sum_s(), a.sum_s() + b.sum_s());
  b.record(0.2);
  EXPECT_FALSE(sim::identical(a, b));
}

}  // namespace
}  // namespace adaflow::sim

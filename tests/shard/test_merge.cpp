#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <tuple>
#include <type_traits>
#include <vector>

#include "adaflow/edge/server_types.hpp"
#include "adaflow/fleet/fleet.hpp"
#include "adaflow/ingest/pipeline.hpp"
#include "adaflow/shard/sharded_engine.hpp"
#include "adaflow/sim/fields.hpp"
#include "adaflow/sim/stats.hpp"
#include "adaflow/tenant/serving.hpp"

namespace adaflow {
namespace {

sim::TimeSeries series(std::vector<double> values, double interval = 0.5) {
  sim::TimeSeries s;
  s.interval_s = interval;
  s.values = std::move(values);
  return s;
}

TEST(SeriesMerge, EmptyIsTheIdentity) {
  const sim::TimeSeries a = series({1.0, 2.0, 3.0});
  const sim::TimeSeries empty;
  EXPECT_EQ(sim::merge_sum_series(a, empty).values, a.values);
  EXPECT_EQ(sim::merge_sum_series(empty, a).values, a.values);
  EXPECT_EQ(sim::merge_max_series(empty, a).values, a.values);
  EXPECT_EQ(sim::merge_weighted_series(a, {1, 1, 1}, empty, {}).values, a.values);
  EXPECT_TRUE(sim::merge_sum_series(empty, empty).values.empty());
  // The identity preserves the surviving operand's interval.
  EXPECT_DOUBLE_EQ(sim::merge_sum_series(empty, a).interval_s, 0.5);
}

TEST(SeriesMerge, SumAndMaxAreElementWiseAndTruncateToShorter) {
  const sim::TimeSeries a = series({1.0, 2.0, 3.0});
  const sim::TimeSeries b = series({10.0, 1.0});
  const sim::TimeSeries sum = sim::merge_sum_series(a, b);
  ASSERT_EQ(sum.values.size(), 2u);
  EXPECT_DOUBLE_EQ(sum.values[0], 11.0);
  EXPECT_DOUBLE_EQ(sum.values[1], 3.0);
  const sim::TimeSeries mx = sim::merge_max_series(a, b);
  ASSERT_EQ(mx.values.size(), 2u);
  EXPECT_DOUBLE_EQ(mx.values[0], 10.0);
  EXPECT_DOUBLE_EQ(mx.values[1], 2.0);
}

TEST(SeriesMerge, SumIsAssociative) {
  const sim::TimeSeries a = series({1.0, 2.0});
  const sim::TimeSeries b = series({4.0, 8.0});
  const sim::TimeSeries c = series({16.0, 32.0});
  const auto left = sim::merge_sum_series(sim::merge_sum_series(a, b), c);
  const auto right = sim::merge_sum_series(a, sim::merge_sum_series(b, c));
  EXPECT_EQ(left.values, right.values);
}

TEST(SeriesMerge, WeightedMergeIsTheWeightProportionalMean) {
  // Window 0: loss 0.5 over 100 frames + loss 0.1 over 300 frames -> 0.2.
  // Window 1: both sides idle -> 0.
  const sim::TimeSeries a = series({0.5, 0.0});
  const sim::TimeSeries b = series({0.1, 0.0});
  const auto merged = sim::merge_weighted_series(a, {100.0, 0.0}, b, {300.0, 0.0});
  ASSERT_EQ(merged.values.size(), 2u);
  EXPECT_DOUBLE_EQ(merged.values[0], 0.2);
  EXPECT_DOUBLE_EQ(merged.values[1], 0.0);
}

TEST(SeriesMerge, WeightedMergeIsAssociativeForIntegerWeights) {
  const sim::TimeSeries a = series({0.5});
  const sim::TimeSeries b = series({0.25});
  const sim::TimeSeries c = series({1.0});
  const std::vector<double> wa = {4.0}, wb = {8.0}, wc = {4.0};
  // Associativity needs each intermediate to carry the combined weight —
  // exactly what the sharded reduction does via the summed workload series.
  const auto ab = sim::merge_weighted_series(a, wa, b, wb);
  const auto left = sim::merge_weighted_series(ab, {12.0}, c, wc);
  const auto bc = sim::merge_weighted_series(b, wb, c, wc);
  const auto right = sim::merge_weighted_series(a, wa, bc, {12.0});
  ASSERT_EQ(left.values.size(), 1u);
  EXPECT_DOUBLE_EQ(left.values[0], right.values[0]);
  EXPECT_DOUBLE_EQ(left.values[0], 0.5);  // (4*0.5 + 8*0.25 + 4*1.0) / 16
}

TEST(LatencyHistogramMerge, EmptyIsTheIdentityAndMergeIsAssociative) {
  sim::LatencyHistogram a, b, c;
  for (double s : {0.001, 0.01, 0.02}) {
    a.record(s);
  }
  for (double s : {0.1, 0.25}) {
    b.record(s);
  }
  c.record(1.5);

  sim::LatencyHistogram identity_check = a;
  identity_check.merge(sim::LatencyHistogram{});
  EXPECT_TRUE(sim::identical(identity_check, a));
  sim::LatencyHistogram from_empty;
  from_empty.merge(a);
  EXPECT_TRUE(sim::identical(from_empty, a));

  sim::LatencyHistogram left = a;
  left.merge(b);
  left.merge(c);
  sim::LatencyHistogram bc = b;
  bc.merge(c);
  sim::LatencyHistogram right = a;
  right.merge(bc);
  EXPECT_TRUE(sim::identical(left, right));
  EXPECT_EQ(left.count(), 6);
  EXPECT_DOUBLE_EQ(left.min_s(), 0.001);
  EXPECT_DOUBLE_EQ(left.max_s(), 1.5);
}

// ---- Field tables: every entry of every table matters ----

template <class V>
struct IsVector : std::false_type {};
template <class E>
struct IsVector<std::vector<E>> : std::true_type {};

/// Fills every member with a non-default value: counters and scalars
/// k * scale (exact in binary), strings from k alone, enums and flags at
/// their first non-default value, series {k, k + 1} (the same in every
/// sample, so weighted merges stay exact), one histogram sample, one row per
/// vector.
template <class V>
void populate(V& v, std::int64_t& k, std::int64_t scale) {
  if constexpr (sim::Tabled<V>) {
    sim::for_each_field<V>([&](const auto& e) { populate(v.*e.member, k, scale); });
  } else if constexpr (IsVector<V>::value) {
    v.assign(1, typename V::value_type{});
    populate(v.front(), k, scale);
  } else if constexpr (std::is_same_v<V, std::string>) {
    v = std::to_string(k++);
  } else if constexpr (std::is_same_v<V, sim::TimeSeries>) {
    v = series({static_cast<double>(k), static_cast<double>(k + 1)});
    k += 2;
  } else if constexpr (std::is_same_v<V, sim::LatencyHistogram>) {
    v.record(0.015625 * static_cast<double>(k++ * scale));
  } else if constexpr (std::is_same_v<V, bool>) {
    v = true;
    ++k;
  } else if constexpr (std::is_enum_v<V>) {
    v = static_cast<V>(1);
    ++k;
  } else {
    v = static_cast<V>(k++ * scale);
  }
}

template <class S>
S populated(std::int64_t scale) {
  S s;
  std::int64_t k = 2;  // above every default member value
  populate(s, k, scale);
  return s;
}

/// Converts to any member type: S{AnyMember{}...} compiles for at most as
/// many initializers as the aggregate S has members.
struct AnyMember {
  template <class T>
  operator T() const;
};

template <class S, class... A>
constexpr std::size_t member_count() {
  if constexpr (requires { S{A{}..., AnyMember{}}; }) {
    return member_count<S, A..., AnyMember>();
  } else {
    return sizeof...(A);
  }
}

/// \p a with \p b merged into it.
template <class S>
S merged(S a, const S& b) {
  sim::merge(a, b);
  return a;
}

TEST(RunMetricsMerge, IsAssociativeAndWeightsLossByWorkload) {
  // 100 frames at loss 0.5 and 300 frames at loss 0.1 in one window merge to
  // 0.2 (numerator-sum over weight-sum), not to the plain mean 0.3.
  auto sample = [](std::int64_t scale, double frames, double loss) {
    edge::RunMetrics m = populated<edge::RunMetrics>(scale);
    m.workload_series = series({frames, 0.0});
    m.loss_series = series({loss, 0.0});
    return m;
  };
  const edge::RunMetrics a = sample(1, 100.0, 0.5);
  const edge::RunMetrics b = sample(2, 300.0, 0.1);
  const edge::RunMetrics c = sample(4, 0.0, 0.0);
  const edge::RunMetrics m = merged(merged(a, b), c);
  EXPECT_TRUE(sim::identical(m, merged(a, merged(b, c))));
  EXPECT_DOUBLE_EQ(m.loss_series.values[0], 0.2);
  EXPECT_DOUBLE_EQ(m.loss_series.values[1], 0.0);  // no weight anywhere
  EXPECT_DOUBLE_EQ(m.workload_series.values[0], 400.0);
  // Frame counters and the per-device integrity ledger add.
  EXPECT_EQ(m.arrived, 7 * a.arrived);
  EXPECT_EQ(m.integrity.wrong_frames, 7 * a.integrity.wrong_frames);
  EXPECT_DOUBLE_EQ(m.integrity.corrupt_time_s, 7 * a.integrity.corrupt_time_s);
}

TEST(FleetMetricsMerge, IdentityAssociativityAndWorstOfSemantics) {
  auto sample = [](std::int64_t scale) {
    fleet::FleetMetrics m = populated<fleet::FleetMetrics>(scale);
    m.backlog_series = series({0.02 * static_cast<double>(scale)});
    m.arrived = m.dispatched + m.ingress_lost + m.ingress_backlog - m.redispatched;
    return m;
  };
  const fleet::FleetMetrics a = sample(1);
  const fleet::FleetMetrics b = sample(3);
  const fleet::FleetMetrics c = sample(5);
  EXPECT_EQ(shard::metrics_fingerprint(merged(fleet::FleetMetrics{}, a)),
            shard::metrics_fingerprint(a));
  const fleet::FleetMetrics left = merged(merged(a, b), c);
  EXPECT_EQ(shard::metrics_fingerprint(left),
            shard::metrics_fingerprint(merged(a, merged(b, c))));

  // Worst-of fields take the max; counters and the silent-corruption ledger
  // add; device rows concatenate in call order.
  EXPECT_DOUBLE_EQ(left.tail_latency_p95_s, c.tail_latency_p95_s);
  EXPECT_DOUBLE_EQ(left.backlog_series.values[0], 0.10);
  EXPECT_EQ(left.processed, 9 * a.processed);
  EXPECT_EQ(left.integrity.wrong_frames, 9 * a.integrity.wrong_frames);
  EXPECT_DOUBLE_EQ(left.integrity.corrupt_time_s, 9 * a.integrity.corrupt_time_s);
  ASSERT_EQ(left.devices.size(), 3u);
  EXPECT_TRUE(sim::identical(left.devices[2], c.devices[0]));
  // Flow conservation survives the merge.
  EXPECT_EQ(left.arrived + left.redispatched,
            left.dispatched + left.ingress_lost + left.ingress_backlog);
}

template <class S>
class FieldTables : public ::testing::Test {};

using TabledStructs =
    ::testing::Types<sim::FaultStats, sim::IntegrityStats, sim::ForecastStats,
                     sim::DetectionStats, edge::SwitchRecord, edge::RunMetrics,
                     fleet::TenantUsage, fleet::FleetDeviceResult, fleet::FleetMetrics,
                     tenant::TenantResult, tenant::MultiTenantMetrics, ingest::BrownoutStats,
                     ingest::CameraSessionStats, ingest::NetworkStats,
                     ingest::StaleFilter::Stats, ingest::IngestSessionResult,
                     ingest::IngestMetrics>;
TYPED_TEST_SUITE(FieldTables, TabledStructs);

TYPED_TEST(FieldTables, TableListsEveryMember) {
  constexpr std::size_t entries =
      std::tuple_size_v<decltype(field_table(std::type_identity<TypeParam>{}))>;
  EXPECT_EQ(entries, member_count<TypeParam>());
  // ...each exactly once: with as many entries as members, no duplicate
  // means no member is missing.
  int repeats = 0;
  sim::for_each_field<TypeParam>([&](const auto& a) {
    sim::for_each_field<TypeParam>([&](const auto& b) {
      if constexpr (std::is_same_v<decltype(a.member), decltype(b.member)>) {
        repeats += a.member == b.member ? 1 : 0;
      }
    });
  });
  EXPECT_EQ(repeats, static_cast<int>(entries));  // each entry matches only itself
}

TYPED_TEST(FieldTables, EveryFieldMovesFingerprintAndEquality) {
  // Every member of the sample differs from its default, so resetting any
  // one member to its default is a change that a complete fingerprint and
  // equality must both see.
  const TypeParam base = populated<TypeParam>(1);
  const TypeParam fresh{};
  EXPECT_TRUE(sim::identical(base, base));
  sim::for_each_field<TypeParam>([&](const auto& e) {
    TypeParam changed = base;
    changed.*e.member = fresh.*e.member;
    EXPECT_FALSE(sim::identical(base, changed)) << e.name;
    EXPECT_NE(sim::fingerprint(base), sim::fingerprint(changed)) << e.name;
  });
}

TYPED_TEST(FieldTables, DefaultIsTheMergeIdentity) {
  const TypeParam s = populated<TypeParam>(2);
  TypeParam left;
  sim::merge(left, s);
  EXPECT_TRUE(sim::identical(left, s));
  TypeParam right = s;
  sim::merge(right, TypeParam{});
  EXPECT_TRUE(sim::identical(right, s));
}

TYPED_TEST(FieldTables, MergeIsAssociativeOnIntegerWeightedSamples) {
  const TypeParam a = populated<TypeParam>(1);
  const TypeParam b = populated<TypeParam>(2);
  const TypeParam c = populated<TypeParam>(4);
  TypeParam left = a;
  sim::merge(left, b);
  sim::merge(left, c);
  TypeParam bc = b;
  sim::merge(bc, c);
  TypeParam right = a;
  sim::merge(right, bc);
  EXPECT_TRUE(sim::identical(left, right));
  EXPECT_EQ(sim::fingerprint(left), sim::fingerprint(right));
}

TYPED_TEST(FieldTables, MeanAndTotalOfOneRunAreTheRun) {
  const TypeParam s = populated<TypeParam>(3);
  EXPECT_TRUE(sim::identical(sim::mean(std::vector<TypeParam>{s}), s));
  EXPECT_TRUE(sim::identical(sim::total(std::vector<TypeParam>{s}), s));
}

TEST(FieldTables, MeanSumsThenDividesAndKeepsRunZerosRows) {
  const edge::RunMetrics a = populated<edge::RunMetrics>(1);
  const edge::RunMetrics b = populated<edge::RunMetrics>(3);
  const edge::RunMetrics m = sim::mean(std::vector<edge::RunMetrics>{a, b});
  EXPECT_EQ(m.arrived, (a.arrived + b.arrived) / 2);
  EXPECT_EQ(m.faults.recoveries, (a.faults.recoveries + b.faults.recoveries) / 2);
  // Max-kind fields are averaged like the counters.
  EXPECT_DOUBLE_EQ(m.duration_s, (a.duration_s + b.duration_s) / 2.0);
  EXPECT_TRUE(sim::identical(m.loss_series, a.loss_series));
  EXPECT_TRUE(sim::identical(m.switches, a.switches));
  EXPECT_EQ(m.e2e_latency.count(), 2);
  // Counts round to nearest; the totals keep the exact sums.
  const edge::RunMetrics one = sim::mean(std::vector<edge::RunMetrics>{a, a, b});
  EXPECT_EQ(one.lost, std::llround(static_cast<double>(2 * a.lost + b.lost) / 3.0));
  EXPECT_EQ(sim::total(std::vector<edge::RunMetrics>{a, a, b}).lost, 2 * a.lost + b.lost);
}

}  // namespace
}  // namespace adaflow

/// Unit tests of the benchmark's own helpers: order statistics, the
/// percentile sample-count rule, span self time, the result emitter, and the
/// host-speed scaling.

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "host_speed.hpp"
#include "result_json.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

TEST(Median, OddEvenAndUnsorted) {
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_DOUBLE_EQ(median({7.0}), 7.0);
  EXPECT_THROW(median({}), std::invalid_argument);
}

// Expected values are Python's statistics.quantiles(values, n=4).
TEST(Quartiles, MatchPythonExclusiveMethod) {
  const Quartiles ten = quartiles({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  EXPECT_DOUBLE_EQ(ten.q1, 2.75);
  EXPECT_DOUBLE_EQ(ten.q2, 5.5);
  EXPECT_DOUBLE_EQ(ten.q3, 8.25);

  const Quartiles four = quartiles({10, 40, 20, 30});
  EXPECT_DOUBLE_EQ(four.q1, 12.5);
  EXPECT_DOUBLE_EQ(four.q2, 25.0);
  EXPECT_DOUBLE_EQ(four.q3, 37.5);

  // Two samples: CPython clamps j and extrapolates.
  const Quartiles two = quartiles({1, 2});
  EXPECT_DOUBLE_EQ(two.q1, 0.75);
  EXPECT_DOUBLE_EQ(two.q2, 1.5);
  EXPECT_DOUBLE_EQ(two.q3, 2.25);
  EXPECT_THROW(quartiles({1.0}), std::invalid_argument);
}

TEST(Quartiles, RelativeIqrIsSpreadOverMedian) {
  EXPECT_DOUBLE_EQ(relative_iqr({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}), (8.25 - 2.75) / 5.5);
  EXPECT_DOUBLE_EQ(relative_iqr({2, 2, 2, 2}), 0.0);
}

TEST(TailPercentile, NeedsTenSamplesBeyond) {
  std::vector<double> values;
  for (int i = 1; i <= 999; ++i) {
    values.push_back(i);
  }
  // p99 of 999 samples is rank 990: only 9 samples lie beyond it.
  EXPECT_FALSE(tail_percentile(values, 0.99).has_value());
  values.push_back(1000);
  ASSERT_TRUE(tail_percentile(values, 0.99).has_value());
  EXPECT_DOUBLE_EQ(*tail_percentile(values, 0.99), 990.0);
  EXPECT_EQ(min_samples_for(0.99), 1000u);

  // The median of 21 samples has 10 beyond it; of 20, it has 10 too
  // (nearest rank 10), of 19 only 9.
  EXPECT_EQ(min_samples_for(0.50), 20u);
  EXPECT_FALSE(tail_percentile(std::vector<double>(19, 1.0), 0.5).has_value());
  EXPECT_TRUE(tail_percentile(std::vector<double>(20, 1.0), 0.5).has_value());
  EXPECT_FALSE(tail_percentile({}, 0.5).has_value());
  EXPECT_THROW(tail_percentile(values, 1.0), std::invalid_argument);
}

TEST(Tracer, SelfTimeSubtractsDirectChildren) {
  Tracer tr;
  const int root = tr.intern("bench.root");
  const int a = tr.intern("nn.train");
  const int b = tr.intern("hls.compile");
  const int c = tr.intern("hls.swu");
  tr.add(root, -1, 0, 100'000'000);       // 100 ms
  tr.add(a, 0, 10'000'000, 50'000'000);   // 40 ms, child of root
  tr.add(c, 1, 20'000'000, 30'000'000);   // 10 ms, child of nn.train
  tr.add(b, 0, 60'000'000, 80'000'000);   // 20 ms, child of root
  const std::vector<double> self = tr.self_seconds();
  EXPECT_NEAR(self[0], 0.040, 1e-12);
  EXPECT_NEAR(self[1], 0.030, 1e-12);
  EXPECT_NEAR(self[2], 0.010, 1e-12);
  EXPECT_NEAR(self[3], 0.020, 1e-12);

  // Self times partition the root span.
  double sum = 0.0;
  for (double s : self) {
    sum += s;
  }
  EXPECT_NEAR(sum, 0.100, 1e-12);

  const auto layers = tr.self_by_layer();
  EXPECT_NEAR(layers.at("hls"), 0.030, 1e-12);
  EXPECT_NEAR(layers.at("nn"), 0.030, 1e-12);
  EXPECT_NEAR(layers.at("bench"), 0.040, 1e-12);
  EXPECT_THROW(tr.add(a, 9, 0, 1), std::invalid_argument);
}

TEST(Tracer, ScopesNestAndAggregateByName) {
  Tracer tr;
  const int outer = tr.intern("core.outer");
  const int inner = tr.intern("sim.inner");
  {
    const Tracer::Scope o(tr, outer);
    for (int i = 0; i < 3; ++i) {
      const Tracer::Scope s(tr, inner);
    }
  }
  ASSERT_EQ(tr.records().size(), 4u);
  EXPECT_EQ(tr.records()[1].parent, 0);
  const std::vector<Tracer::Row> rows = tr.by_name();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].name, "core.outer");
  EXPECT_EQ(rows[1].calls, 3);
  EXPECT_GE(rows[0].total_s, rows[1].total_s);
  EXPECT_EQ(layer_of("hls.conv0.mvtu"), "hls");
  EXPECT_EQ(layer_of("bench"), "bench");
}

TEST(Tracer, DisabledTracerRecordsNothing) {
  Tracer off(false);
  {
    const Tracer::Scope s(off, off.intern("nn.train"));
    EXPECT_EQ(off.open(off.intern("hls.compile")), Tracer::kNoSpan);
    off.close(Tracer::kNoSpan);
  }
  EXPECT_TRUE(off.records().empty());
}

TEST(Tracer, ChromeJsonHasOneCompleteEventPerSpan) {
  Tracer tr;
  tr.add(tr.intern("bench.\"quoted\""), -1, 1000, 3000);
  const std::string json = tr.chrome_json();
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"bench.\\\"quoted\\\"\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\":1.000,\"dur\":2.000"), std::string::npos);
}

TEST(ResultJson, RendersNameValueMapWithFullPrecision) {
  const std::string line = render_result(true, 12, 0, {{"wall_s", 0.1 + 0.2}, {"quality", 1.0}});
  EXPECT_EQ(line,
            "{\"correct\": true, \"attempted\": 12, \"failed\": 0, \"metrics\": "
            "{\"quality\": 1, \"wall_s\": 0.30000000000000004}}");
  EXPECT_NE(render_result(false, 3, 1, {}).find("\"correct\": false"), std::string::npos);
}

TEST(ResultJson, RejectsWhatTheContractForbids) {
  EXPECT_THROW(render_result(true, 0, 0, {}), std::invalid_argument);
  EXPECT_THROW(render_result(true, 1, 2, {}), std::invalid_argument);
  EXPECT_THROW(render_result(true, 1, 0, {{"a", NAN}}), std::invalid_argument);
  EXPECT_EQ(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
}

TEST(HostSpeed, ScalesTheIntervalByTheKernelsAroundIt) {
  const Timing t = timed([] { std::this_thread::sleep_for(std::chrono::milliseconds(20)); });
  EXPECT_GE(t.raw_s, 0.020);
  // scaled = raw * reference / kernel time, and the kernel takes tens of ms.
  const double kernel_s = kReferenceKernelS * t.raw_s / t.scaled_s;
  EXPECT_GT(kernel_s, 0.001);
  EXPECT_LT(kernel_s, 1.0);
}

}  // namespace
}  // namespace perfbench

#include "adaflow/sim/stats.hpp"

#include <algorithm>
#include <cmath>

#include "adaflow/common/error.hpp"

namespace adaflow::sim {

void RunningStat::add(double x) {
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

double RunningStat::stddev() const {
  if (count_ < 2) {
    return 0.0;
  }
  return std::sqrt(m2_ / static_cast<double>(count_ - 1));
}

TimeSeries average_series(const std::vector<TimeSeries>& runs) {
  require(!runs.empty(), "no series to average");
  TimeSeries out;
  out.interval_s = runs.front().interval_s;
  std::size_t len = runs.front().values.size();
  for (const TimeSeries& r : runs) {
    len = std::min(len, r.values.size());
  }
  out.values.assign(len, 0.0);
  for (const TimeSeries& r : runs) {
    for (std::size_t i = 0; i < len; ++i) {
      out.values[i] += r.values[i];
    }
  }
  for (double& v : out.values) {
    v /= static_cast<double>(runs.size());
  }
  return out;
}

double percentile(const std::vector<double>& values, double q) {
  require(q >= 0.0 && q <= 1.0, "percentile q must be in [0, 1]");
  if (values.empty()) {
    return 0.0;
  }
  std::vector<double> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  // Classical nearest-rank: rank ceil(q*N) in 1-based terms. The previous
  // llround(q*(N-1)) variant underestimated extreme tails on small N (e.g.
  // p999 of N=2 depended on rounding ties); ceil saturates the rank at N as
  // soon as N < 1/(1-q), so short runs report their maximum.
  const double scaled = q * static_cast<double>(sorted.size());
  const auto rank = static_cast<std::int64_t>(std::ceil(scaled));
  const std::int64_t idx =
      std::min<std::int64_t>(std::max<std::int64_t>(rank - 1, 0),
                             static_cast<std::int64_t>(sorted.size()) - 1);
  return sorted[static_cast<std::size_t>(idx)];
}

namespace {

/// Lower bound of histogram bucket \p i (upper bound = lower of i + 1).
double bucket_lower(int i) {
  if (i <= 0) {
    return 0.0;
  }
  constexpr double kGrowth = 1.0905077326652577;  // 2^(1/8)
  return LatencyHistogram::kMinSeconds * std::pow(kGrowth, static_cast<double>(i - 1));
}

int bucket_index(double seconds) {
  if (seconds < LatencyHistogram::kMinSeconds) {
    return 0;
  }
  const double ratio = seconds / LatencyHistogram::kMinSeconds;
  // log2(ratio) * 8 buckets per octave; +1 because bucket 0 is [0, min).
  const int idx = 1 + static_cast<int>(std::floor(std::log2(ratio) * 8.0));
  return std::min(idx, LatencyHistogram::kBuckets - 1);
}

}  // namespace

void LatencyHistogram::record(double seconds) {
  const double s = std::max(seconds, 0.0);
  if (count_ == 0) {
    min_s_ = max_s_ = s;
  } else {
    min_s_ = std::min(min_s_, s);
    max_s_ = std::max(max_s_, s);
  }
  ++count_;
  sum_s_ += s;
  ++buckets_[static_cast<std::size_t>(bucket_index(s))];
}

double LatencyHistogram::percentile(double q) const {
  require(q >= 0.0 && q <= 1.0, "LatencyHistogram percentile q must be in [0, 1]");
  if (count_ == 0) {
    return 0.0;
  }
  const auto rank = std::max<std::int64_t>(
      static_cast<std::int64_t>(std::ceil(q * static_cast<double>(count_))), 1);
  std::int64_t cumulative = 0;
  for (int i = 0; i < kBuckets; ++i) {
    const std::int64_t in_bucket = buckets_[static_cast<std::size_t>(i)];
    if (cumulative + in_bucket < rank) {
      cumulative += in_bucket;
      continue;
    }
    if (i == kBuckets - 1) {
      return max_s_;  // overflow bucket: the recorded maximum is exact
    }
    const double lo = bucket_lower(i);
    const double hi = bucket_lower(i + 1);
    const double frac =
        static_cast<double>(rank - cumulative) / static_cast<double>(in_bucket);
    const double estimate = lo + (hi - lo) * frac;
    return std::min(std::max(estimate, min_s_), max_s_);
  }
  return max_s_;
}

void LatencyHistogram::merge(const LatencyHistogram& other) {
  if (other.count_ == 0) {
    return;
  }
  if (count_ == 0) {
    min_s_ = other.min_s_;
    max_s_ = other.max_s_;
  } else {
    min_s_ = std::min(min_s_, other.min_s_);
    max_s_ = std::max(max_s_, other.max_s_);
  }
  count_ += other.count_;
  sum_s_ += other.sum_s_;
  for (int i = 0; i < kBuckets; ++i) {
    buckets_[static_cast<std::size_t>(i)] += other.buckets_[static_cast<std::size_t>(i)];
  }
}

namespace {

/// Shared empty-identity / truncate-to-shorter preamble of the series merge
/// helpers. Returns true when \p out was fully resolved by an empty operand.
bool merge_identity(const TimeSeries& a, const TimeSeries& b, TimeSeries& out) {
  if (a.values.empty()) {
    out = b;
    return true;
  }
  if (b.values.empty()) {
    out = a;
    return true;
  }
  return false;
}

}  // namespace

TimeSeries merge_sum_series(const TimeSeries& a, const TimeSeries& b) {
  TimeSeries out;
  if (merge_identity(a, b, out)) {
    return out;
  }
  const std::size_t len = std::min(a.values.size(), b.values.size());
  out.interval_s = a.interval_s;
  out.values.reserve(len);
  for (std::size_t i = 0; i < len; ++i) {
    out.values.push_back(a.values[i] + b.values[i]);
  }
  return out;
}

TimeSeries merge_max_series(const TimeSeries& a, const TimeSeries& b) {
  TimeSeries out;
  if (merge_identity(a, b, out)) {
    return out;
  }
  const std::size_t len = std::min(a.values.size(), b.values.size());
  out.interval_s = a.interval_s;
  out.values.reserve(len);
  for (std::size_t i = 0; i < len; ++i) {
    out.values.push_back(std::max(a.values[i], b.values[i]));
  }
  return out;
}

TimeSeries merge_weighted_series(const TimeSeries& a, const std::vector<double>& wa,
                                 const TimeSeries& b, const std::vector<double>& wb) {
  TimeSeries out;
  if (merge_identity(a, b, out)) {
    return out;
  }
  const std::size_t len = std::min(a.values.size(), b.values.size());
  require(wa.size() >= len && wb.size() >= len,
          "merge_weighted_series weights shorter than the series");
  out.interval_s = a.interval_s;
  out.values.reserve(len);
  for (std::size_t i = 0; i < len; ++i) {
    const double w = wa[i] + wb[i];
    // Numerator-sum over weight-sum (not a mean of means): associative, and
    // re-derivable from the additive workload series it is weighted by.
    out.values.push_back(w > 0.0 ? (a.values[i] * wa[i] + b.values[i] * wb[i]) / w : 0.0);
  }
  return out;
}

}  // namespace adaflow::sim

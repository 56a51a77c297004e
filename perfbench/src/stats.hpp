#pragma once

/// \file stats.hpp
/// Order statistics for the benchmark's host timings.
///
/// Two rules keep the reported numbers steady:
///  - a percentile is reported only when at least kMinTailSamples samples lie
///    beyond it, so a "p99" is never a single sample;
///  - quartiles follow Python's statistics.quantiles(values, n=4) (the
///    "exclusive" method), so the spread the benchmark prints is the spread
///    an outside reader recomputes from the same values.

#include <cstddef>
#include <optional>
#include <vector>

namespace perfbench {

/// Samples that must lie strictly above a percentile before it is reported.
inline constexpr std::size_t kMinTailSamples = 10;

/// Median of \p values (mean of the middle pair for even counts). Throws
/// std::invalid_argument on an empty input.
double median(std::vector<double> values);

struct Quartiles {
  double q1 = 0.0;
  double q2 = 0.0;
  double q3 = 0.0;
};

/// statistics.quantiles(values, n=4, method="exclusive"). Needs >= 2 values.
Quartiles quartiles(std::vector<double> values);

/// (q3 - q1) / q2: the run-to-run spread as a share of the median.
double relative_iqr(const std::vector<double>& values);

/// Nearest-rank percentile \p q in (0, 1) of \p values, or nullopt when fewer
/// than kMinTailSamples samples lie beyond it.
std::optional<double> tail_percentile(std::vector<double> values, double q);

/// Smallest sample count at which tail_percentile(values, q) is reported.
std::size_t min_samples_for(double q);

/// Peak resident set size of this process in MiB (getrusage ru_maxrss).
double peak_rss_mb();

}  // namespace perfbench

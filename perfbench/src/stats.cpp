#include "stats.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace perfbench {

double median(std::vector<double> values) {
  if (values.empty()) {
    throw std::invalid_argument("median of no samples");
  }
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

Quartiles quartiles(std::vector<double> values) {
  if (values.size() < 2) {
    throw std::invalid_argument("quartiles need at least two samples");
  }
  std::sort(values.begin(), values.end());
  // Line for line CPython's algorithm, including its clamp of j into
  // [1, n - 1] (delta is taken after the clamp, so tiny inputs extrapolate).
  const long long ld = static_cast<long long>(values.size());
  const long long m = ld + 1;
  double cut[3];
  for (long long i = 1; i <= 3; ++i) {
    const long long j = std::clamp(i * m / 4, 1LL, ld - 1);
    const long long delta = i * m - j * 4;
    cut[i - 1] = (values[static_cast<std::size_t>(j - 1)] * static_cast<double>(4 - delta) +
                  values[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
                 4.0;
  }
  return {cut[0], cut[1], cut[2]};
}

double relative_iqr(const std::vector<double>& values) {
  const Quartiles q = quartiles(values);
  return q.q2 != 0.0 ? (q.q3 - q.q1) / std::fabs(q.q2) : 0.0;
}

std::size_t min_samples_for(double q) {
  std::size_t n = 1;
  while (n - static_cast<std::size_t>(std::ceil(q * static_cast<double>(n))) < kMinTailSamples) {
    ++n;
  }
  return n;
}

std::optional<double> tail_percentile(std::vector<double> values, double q) {
  if (!(q > 0.0 && q < 1.0)) {
    throw std::invalid_argument("percentile must lie in (0, 1)");
  }
  const std::size_t n = values.size();
  const std::size_t rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  if (n == 0 || n - rank < kMinTailSamples) {
    return std::nullopt;
  }
  std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   values.end());
  return values[rank - 1];
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux reports KiB
}

}  // namespace perfbench

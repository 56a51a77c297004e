#pragma once

/// \file strings.hpp
/// String formatting helpers used by the library table, benches and reports.

#include <string>
#include <vector>

namespace adaflow {

/// Formats \p value with \p decimals digits after the point ("1.38").
std::string format_double(double value, int decimals);

/// Formats a ratio as "1.38x".
std::string format_ratio(double value, int decimals = 2);

/// Formats a fraction (0..1) as a percentage string "27.2%".
std::string format_percent(double fraction, int decimals = 1);

/// Joins strings with a separator.
std::string join(const std::vector<std::string>& parts, const std::string& sep);

/// Right-pads \p s with spaces to \p width.
std::string pad_right(const std::string& s, std::size_t width);

}  // namespace adaflow

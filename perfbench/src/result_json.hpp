#pragma once

/// \file result_json.hpp
/// The program's one-line result object, the last line of its stdout:
///   {"correct": true, "attempted": N, "failed": F,
///    "metrics": {"<name>": <number>, ...}}
/// run.py attaches each metric's unit from BENCHMARK.json, the one metric
/// catalogue. Values print with 17 significant digits, so every measured
/// digit survives; a non-finite value is a benchmark bug and throws.

#include <cstdint>
#include <map>
#include <string>

namespace perfbench {

/// Metric name -> measured value.
using Metrics = std::map<std::string, double>;

/// \p s as a quoted JSON string.
std::string json_string(const std::string& s);

/// \p v as a JSON number with full precision.
std::string json_number(double v);

std::string render_result(bool correct, std::int64_t attempted, std::int64_t failed,
                          const Metrics& metrics);

}  // namespace perfbench

#include "adaflow/common/strings.hpp"

#include <cstdio>

namespace adaflow {

std::string format_double(double value, int decimals) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.*f", decimals, value);
  return buffer;
}

std::string format_ratio(double value, int decimals) {
  return format_double(value, decimals) + "x";
}

std::string format_percent(double fraction, int decimals) {
  return format_double(fraction * 100.0, decimals) + "%";
}

std::string join(const std::vector<std::string>& parts, const std::string& sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i != 0) {
      out += sep;
    }
    out += parts[i];
  }
  return out;
}

std::string pad_right(const std::string& s, std::size_t width) {
  if (s.size() >= width) {
    return s;
  }
  return s + std::string(width - s.size(), ' ');
}

}  // namespace adaflow

#include "result_json.hpp"

#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace perfbench {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(c));
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) {
    throw std::invalid_argument("JSON cannot carry a non-finite metric value");
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string render_result(bool correct, std::int64_t attempted, std::int64_t failed,
                          const Metrics& metrics) {
  if (attempted < 1 || failed < 0 || failed > attempted) {
    throw std::invalid_argument("need attempted >= 1 and 0 <= failed <= attempted");
  }
  std::string out = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  const char* sep = "";
  for (const auto& [name, value] : metrics) {
    out += sep + json_string(name) + ": " + json_number(value);
    sep = ", ";
  }
  return out + "}}";
}

}  // namespace perfbench

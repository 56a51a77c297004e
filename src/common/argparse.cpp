#include "adaflow/common/argparse.hpp"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "adaflow/common/error.hpp"
#include "adaflow/common/strings.hpp"

namespace adaflow {

std::string Range::describe() const {
  const auto num = [](double v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%g", v);
    return std::string(buf);
  };
  if (lo != -kInf && hi != kInf) {
    return std::string("in ") + (lo_inclusive ? "[" : "(") + num(lo) + ", " + num(hi) +
           (hi_inclusive ? "]" : ")");
  }
  return (lo_inclusive ? ">= " : "> ") + num(lo);  // the factories bound hi only with lo
}

ArgParser::ArgParser(std::string program, std::string description)
    : program_(std::move(program)), description_(std::move(description)) {}

void ArgParser::declare(const std::string& name, Kind kind, const std::string& help,
                        const std::string& def, Range range, std::vector<std::string> choices) {
  Option& o = options_[name] = Option{};
  o.kind = kind;
  o.help = help;
  o.value = def;
  o.optional = def.empty() && (kind == Kind::kInt || kind == Kind::kReal || kind == Kind::kReals);
  o.range = range;
  o.choices = std::move(choices);
}

void ArgParser::parse(const std::vector<std::string>& args) {
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg.rfind("--", 0) != 0) {
      throw ConfigError("unexpected argument '" + arg + "'\n" + help());
    }
    const std::size_t eq = arg.find('=');
    const std::string name = arg.substr(2, eq == std::string::npos ? eq : eq - 2);
    auto it = options_.find(name);
    if (it == options_.end()) {
      throw ConfigError("unknown option --" + name + "\n" + help());
    }
    Option& o = it->second;
    o.set = true;
    if (o.kind == Kind::kFlag) {
      if (eq != std::string::npos) {
        throw ConfigError("flag --" + name + " takes no value");
      }
      o.value = "1";
    } else if (eq != std::string::npos) {
      o.value = arg.substr(eq + 1);
    } else if (i + 1 < args.size()) {
      o.value = args[++i];
    } else {
      throw ConfigError("option --" + name + " needs a value");
    }
  }
  for (auto& [name, o] : options_) {
    check(name, o);
  }
  parsed_ = true;
}

void ArgParser::check(const std::string& name, Option& o) {
  const auto fail = [&](const std::string& what, const std::string& got) {
    throw ConfigError("--" + name + " must be " + what + ", got '" + got + "'");
  };
  if (o.kind == Kind::kChoice &&
      std::find(o.choices.begin(), o.choices.end(), o.value) == o.choices.end()) {
    fail("one of " + join(o.choices, " | "), o.value);
  }
  if (o.kind == Kind::kInt && !(o.optional && o.value.empty())) {
    char* end = nullptr;
    errno = 0;
    o.integer = std::strtoll(o.value.c_str(), &end, 10);
    if (end == o.value.c_str() || *end != '\0' || errno == ERANGE) {
      fail("a 64-bit integer", o.value);
    }
    // Exact for every bound below 2^53, and the rounding is monotonic.
    if (!o.range.contains(static_cast<double>(o.integer))) {
      fail(o.range.describe(), o.value);
    }
  }
  if ((o.kind == Kind::kReal || o.kind == Kind::kReals) && !(o.optional && o.value.empty())) {
    o.numbers.clear();
    for (const std::string& v : o.kind == Kind::kReals ? split(o.value, ',')
                                                       : std::vector<std::string>{o.value}) {
      char* end = nullptr;
      o.numbers.push_back(std::strtod(v.c_str(), &end));
      if (end == v.c_str() || *end != '\0' || !std::isfinite(o.numbers.back())) {
        fail("a finite number", v);
      }
      if (!o.range.contains(o.numbers.back())) {
        fail(o.range.describe(), v);
      }
    }
  }
}

const ArgParser::Option& ArgParser::find(const std::string& name) const {
  auto it = options_.find(name);
  if (it == options_.end()) {
    throw ConfigError("option --" + name + " was never declared");
  }
  return it->second;
}

const ArgParser::Option& ArgParser::find(const std::string& name, Kind kind) const {
  const Option& o = find(name);
  if (!parsed_ || o.kind != kind || (o.optional && o.value.empty())) {
    throw ConfigError("option --" + name + (!parsed_           ? " read before parse()"
                                            : o.kind != kind ? " has another type"
                                                             : " not given"));
  }
  return o;
}

void ArgParser::narrowing_error(const std::string& name, std::int64_t lo, std::int64_t hi) const {
  throw ConfigError("--" + name + " must be in [" + std::to_string(lo) + ", " +
                    std::to_string(hi) + "], got '" + option(name) + "'");
}

std::string ArgParser::help() const {
  std::string out = "usage: " + program_ + " [options]\n  " + description_ + "\n";
  for (const auto& [name, o] : options_) {
    const bool is_flag = o.kind == Kind::kFlag;
    out += "  --" + name + (is_flag ? "" : " VALUE") + "  " + o.help;
    if (!is_flag && !o.value.empty()) {
      out += " (default: " + o.value + ")";
    }
    out += "\n";
  }
  return out;
}

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= s.size()) {
    const std::size_t end = s.find(sep, start);
    if (end == std::string::npos) {
      out.push_back(s.substr(start));
      break;
    }
    out.push_back(s.substr(start, end - start));
    start = end + 1;
  }
  return out;
}

}  // namespace adaflow

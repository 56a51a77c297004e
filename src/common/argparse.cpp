#include "adaflow/common/argparse.hpp"

#include <cstdlib>

#include "adaflow/common/error.hpp"

namespace adaflow {

ArgParser::ArgParser(std::string program, std::string description)
    : program_(std::move(program)), description_(std::move(description)) {}

void ArgParser::add_flag(const std::string& name, const std::string& help) {
  Option o;
  o.help = help;
  o.is_flag = true;
  options_[name] = std::move(o);
}

void ArgParser::add_option(const std::string& name, const std::string& help,
                           const std::string& default_value) {
  Option o;
  o.help = help;
  o.value = default_value;
  options_[name] = std::move(o);
}

void ArgParser::parse(const std::vector<std::string>& args) {
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg.rfind("--", 0) != 0) {
      throw ConfigError("unexpected argument '" + arg + "'\n" + help());
    }
    std::string name = arg.substr(2);
    std::string inline_value;
    bool has_inline = false;
    const std::size_t eq = name.find('=');
    if (eq != std::string::npos) {
      inline_value = name.substr(eq + 1);
      name = name.substr(0, eq);
      has_inline = true;
    }
    auto it = options_.find(name);
    if (it == options_.end()) {
      throw ConfigError("unknown option --" + name + "\n" + help());
    }
    Option& o = it->second;
    o.set = true;
    if (o.is_flag) {
      if (has_inline) {
        throw ConfigError("flag --" + name + " takes no value");
      }
      o.value = "1";
    } else if (has_inline) {
      o.value = inline_value;
    } else {
      if (i + 1 >= args.size()) {
        throw ConfigError("option --" + name + " needs a value");
      }
      o.value = args[++i];
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

bool ArgParser::flag(const std::string& name) const { return find(name).set; }

const std::string& ArgParser::option(const std::string& name) const { return find(name).value; }

double ArgParser::option_double(const std::string& name) const {
  const std::string& v = option(name);
  char* end = nullptr;
  const double d = std::strtod(v.c_str(), &end);
  if (end == v.c_str() || *end != '\0') {
    throw ConfigError("option --" + name + " expects a number, got '" + v + "'");
  }
  return d;
}

double ArgParser::option_positive_double(const std::string& name) const {
  const double d = option_double(name);
  if (!(d > 0.0)) {
    throw ConfigError("option --" + name + " must be positive, got '" + option(name) + "'");
  }
  return d;
}

double ArgParser::option_nonnegative_double(const std::string& name) const {
  const double d = option_double(name);
  if (d < 0.0) {
    throw ConfigError("option --" + name + " must be >= 0, got '" + option(name) + "'");
  }
  return d;
}

std::int64_t ArgParser::option_int(const std::string& name) const {
  const std::string& v = option(name);
  char* end = nullptr;
  const long long i = std::strtoll(v.c_str(), &end, 10);
  if (end == v.c_str() || *end != '\0') {
    throw ConfigError("option --" + name + " expects an integer, got '" + v + "'");
  }
  return static_cast<std::int64_t>(i);
}

bool ArgParser::has(const std::string& name) const { return find(name).set; }

std::string ArgParser::help() const {
  std::string out = "usage: " + program_ + " [options]\n  " + description_ + "\n";
  for (const auto& [name, o] : options_) {
    out += "  --" + name + (o.is_flag ? "" : " VALUE") + "  " + o.help;
    if (!o.is_flag && !o.value.empty()) {
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

#pragma once

/// \file argparse.hpp
/// Minimal command-line parser for the tools/ binaries: long options with
/// values (--rate 0.5 or --rate=0.5) and boolean flags.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace adaflow {

class ArgParser {
 public:
  ArgParser(std::string program, std::string description);

  /// Boolean flag (--name).
  void add_flag(const std::string& name, const std::string& help);

  /// Valued option (--name VALUE or --name=VALUE) with a default.
  void add_option(const std::string& name, const std::string& help,
                  const std::string& default_value = "");

  /// Parses the arguments after the program (and subcommand) name. Throws
  /// ConfigError on unknown options, missing values, or any argument that
  /// is not an option.
  void parse(const std::vector<std::string>& args);

  bool flag(const std::string& name) const;
  const std::string& option(const std::string& name) const;
  double option_double(const std::string& name) const;
  std::int64_t option_int(const std::string& name) const;
  /// option_double with a sign contract; both throw ConfigError naming the
  /// flag (e.g. "--probe-interval must be positive, got '-1'") so tools get
  /// uniform, testable validation of timeout/budget-style options.
  double option_positive_double(const std::string& name) const;
  double option_nonnegative_double(const std::string& name) const;
  bool has(const std::string& name) const;  ///< option explicitly set?

  /// Usage text.
  std::string help() const;

 private:
  struct Option {
    std::string help;
    std::string value;
    bool is_flag = false;
    bool set = false;
  };

  const Option& find(const std::string& name) const;

  std::string program_;
  std::string description_;
  std::map<std::string, Option> options_;
};

/// Splits "a,b,c" into parts.
std::vector<std::string> split(const std::string& s, char sep);

}  // namespace adaflow

#pragma once

/// \file argparse.hpp
/// Command-line parser for the tools/ binaries: long options with values
/// (--rate 0.5 or --rate=0.5) and boolean flags. Every option declares its
/// type, default and range; parse() checks each value against its
/// declaration (defaults included), so a tool reads only checked values.

#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace adaflow {

/// Bounds of a numeric option. Each end is inclusive or exclusive; an
/// infinite end is absent. The factories below are the supported shapes:
/// a lower bound, or both bounds.
struct Range {
  static constexpr double kInf = std::numeric_limits<double>::infinity();

  double lo = -kInf;
  double hi = kInf;
  bool lo_inclusive = true;
  bool hi_inclusive = true;

  static Range at_least(double lo) { return {lo, kInf, true, true}; }              ///< >= lo
  static Range above(double lo) { return {lo, kInf, false, true}; }                ///< > lo
  static Range closed(double lo, double hi) { return {lo, hi, true, true}; }       ///< [lo, hi]
  static Range closed_open(double lo, double hi) { return {lo, hi, true, false}; } ///< [lo, hi)
  static Range open_closed(double lo, double hi) { return {lo, hi, false, true}; } ///< (lo, hi]

  bool contains(double v) const {
    return (lo_inclusive ? v >= lo : v > lo) && (hi_inclusive ? v <= hi : v < hi);
  }
  /// ">= lo", "> lo", "in [lo, hi)", ... — the tail of "--x must be ...".
  std::string describe() const;
};

class ArgParser {
 public:
  ArgParser(std::string program, std::string description);

  /// Boolean flag (--name).
  void add_flag(const std::string& name, const std::string& help) {
    declare(name, Kind::kFlag, help, "");
  }
  /// Free-text option (--name VALUE or --name=VALUE) with a default.
  void add_option(const std::string& name, const std::string& help, const std::string& def = "") {
    declare(name, Kind::kText, help, def);
  }
  /// Typed options. The default is text, checked like a user value. A
  /// numeric option whose default is empty is optional: an empty value
  /// means "not given" and is not checked.
  void add_int(const std::string& name, const std::string& help, const std::string& def,
               Range range = {}) {
    declare(name, Kind::kInt, help, def, range);
  }
  void add_real(const std::string& name, const std::string& help, const std::string& def,
                Range range = {}) {
    declare(name, Kind::kReal, help, def, range);
  }
  /// Comma-separated reals, each one checked against \p range.
  void add_reals(const std::string& name, const std::string& help, const std::string& def,
                 Range range = {}) {
    declare(name, Kind::kReals, help, def, range);
  }
  void add_choice(const std::string& name, const std::string& help, const std::string& def,
                  std::vector<std::string> choices) {
    declare(name, Kind::kChoice, help, def, {}, std::move(choices));
  }

  /// Parses the arguments after the program (and subcommand) name, then
  /// checks every typed option. Throws ConfigError on unknown options,
  /// missing values, arguments that are not options, and values outside
  /// their declaration: "--NAME must be <range | one of a | b>, got 'v'".
  void parse(const std::vector<std::string>& args);

  bool flag(const std::string& name) const { return find(name).set; }
  bool has(const std::string& name) const { return find(name).set; }  ///< explicitly set?
  const std::string& option(const std::string& name) const { return find(name).value; }
  /// The checked integer narrowed to \p T; ConfigError naming the flag if
  /// it does not fit (e.g. --epochs 4294967297 as an int).
  template <typename T = std::int64_t>
  T integer(const std::string& name) const {
    static_assert(std::is_signed_v<T>, "narrow to a signed integer type");
    const std::int64_t v = find(name, Kind::kInt).integer;
    if (!std::in_range<T>(v)) {
      narrowing_error(name, std::numeric_limits<T>::min(), std::numeric_limits<T>::max());
    }
    return static_cast<T>(v);
  }
  double real(const std::string& name) const { return find(name, Kind::kReal).numbers[0]; }
  const std::vector<double>& reals(const std::string& name) const {
    return find(name, Kind::kReals).numbers;
  }

  /// Usage text.
  std::string help() const;

 private:
  enum class Kind { kFlag, kText, kInt, kReal, kReals, kChoice };

  struct Option {
    Kind kind = Kind::kText;
    std::string help;
    std::string value;
    bool optional = false;  ///< numeric with an empty default
    bool set = false;
    Range range;
    std::vector<std::string> choices;
    std::int64_t integer = 0;     ///< checked value of kInt
    std::vector<double> numbers;  ///< checked value(s) of kReal / kReals
  };

  void declare(const std::string& name, Kind kind, const std::string& help,
               const std::string& def, Range range = {}, std::vector<std::string> choices = {});
  static void check(const std::string& name, Option& o);
  [[noreturn]] void narrowing_error(const std::string& name, std::int64_t lo,
                                    std::int64_t hi) const;
  const Option& find(const std::string& name) const;
  /// find() for a typed getter: rejects a call before parse(), another
  /// kind, and an optional number that was not given.
  const Option& find(const std::string& name, Kind kind) const;

  std::string program_;
  std::string description_;
  std::map<std::string, Option> options_;
  bool parsed_ = false;
};

/// Splits "a,b,c" into parts.
std::vector<std::string> split(const std::string& s, char sep);

}  // namespace adaflow

#include "adaflow/common/argparse.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

#include "adaflow/common/error.hpp"

namespace adaflow {
namespace {

ArgParser make_parser() {
  ArgParser p("tool", "test parser");
  p.add_flag("verbose", "chatty output");
  p.add_real("rate", "pruning rate", "0.5");
  p.add_option("name", "a string");
  return p;
}

TEST(ArgParse, DefaultsApply) {
  ArgParser p = make_parser();
  p.parse({});
  EXPECT_FALSE(p.flag("verbose"));
  EXPECT_FALSE(p.has("rate"));
  EXPECT_DOUBLE_EQ(p.real("rate"), 0.5);
  EXPECT_EQ(p.option("name"), "");
}

TEST(ArgParse, SeparateValueSyntax) {
  ArgParser p = make_parser();
  p.parse({"--rate", "0.75"});
  EXPECT_DOUBLE_EQ(p.real("rate"), 0.75);
  EXPECT_TRUE(p.has("rate"));
}

TEST(ArgParse, EqualsValueSyntax) {
  ArgParser p = make_parser();
  p.parse({"--name=hello"});
  EXPECT_EQ(p.option("name"), "hello");
}

TEST(ArgParse, FlagsHaveNoValue) {
  ArgParser p = make_parser();
  p.parse({"--verbose"});
  EXPECT_TRUE(p.flag("verbose"));
  EXPECT_THROW(
      {
        ArgParser q = make_parser();
        q.parse({"--verbose=1"});
      },
      ConfigError);
}

TEST(ArgParse, UnknownOptionRejected) {
  ArgParser p = make_parser();
  EXPECT_THROW(p.parse({"--nope"}), ConfigError);
}

TEST(ArgParse, MissingValueRejected) {
  ArgParser p = make_parser();
  EXPECT_THROW(p.parse({"--verbose", "--rate"}), ConfigError);
}

TEST(ArgParse, ExtraPositionalRejected) {
  // The tools take options only: a stray word is an error naming it, also
  // after valid options.
  ArgParser p = make_parser();
  try {
    p.parse({"--rate", "0.25", "stray"});
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("unexpected argument 'stray'"), std::string::npos);
  }
}

/// The ConfigError message parse() throws for \p args (empty if none).
std::string parse_error(ArgParser p, const std::vector<std::string>& args) {
  try {
    p.parse(args);
  } catch (const ConfigError& e) {
    return e.what();
  }
  return "";
}

TEST(ArgParse, NumericValidation) {
  // A typed value is checked by parse() itself, before any getter runs.
  EXPECT_EQ(parse_error(make_parser(), {"--rate", "abc"}),
            "config error: --rate must be a finite number, got 'abc'");
  EXPECT_EQ(parse_error(make_parser(), {"--rate", "0.5x"}),
            "config error: --rate must be a finite number, got '0.5x'");
}

TEST(ArgParse, IntOption) {
  ArgParser p("t", "d");
  p.add_int("n", "count", "3");
  p.parse({});
  EXPECT_EQ(p.integer("n"), 3);
  ArgParser q("t", "d");
  q.add_int("n", "count", "3");
  EXPECT_EQ(parse_error(q, {"--n", "2.5"}), "config error: --n must be a 64-bit integer, got '2.5'");
}

TEST(ArgParse, HelpMentionsEverything) {
  ArgParser p = make_parser();
  const std::string h = p.help();
  EXPECT_NE(h.find("--rate"), std::string::npos);
  EXPECT_NE(h.find("--verbose"), std::string::npos);
  EXPECT_NE(h.find("--name"), std::string::npos);
  EXPECT_NE(h.find("test parser"), std::string::npos);
}

TEST(ArgParse, PositiveDoubleRejectsZeroNegativeAndGarbageNamingTheFlag) {
  // The fleet CLI's chaos/health timeouts are declared Range::above(0): the
  // error must name the offending flag and value so a sweep script's
  // failure is actionable.
  const auto positive = [](const std::string& name, const std::string& def) {
    ArgParser p("t", "d");
    p.add_real(name, "seconds", def, Range::above(0.0));
    return p;
  };
  EXPECT_EQ(parse_error(positive("probe-interval", "1.0"), {"--probe-interval", "-1"}),
            "config error: --probe-interval must be > 0, got '-1'");
  EXPECT_EQ(parse_error(positive("suspect-timeout", "0"), {}),
            "config error: --suspect-timeout must be > 0, got '0'");
  EXPECT_EQ(parse_error(positive("probe-timeout", "soon"), {}),
            "config error: --probe-timeout must be a finite number, got 'soon'");
  ArgParser ok = positive("probe-interval", "0.25");
  ok.parse({});
  EXPECT_DOUBLE_EQ(ok.real("probe-interval"), 0.25);
}

TEST(ArgParse, NonnegativeDoubleAllowsZeroButRejectsNegative) {
  ArgParser p("t", "d");
  p.add_real("hedge-budget", "seconds, 0 disables", "0", Range::at_least(0.0));
  ArgParser neg = p;
  p.parse({});
  EXPECT_DOUBLE_EQ(p.real("hedge-budget"), 0.0);
  EXPECT_EQ(parse_error(neg, {"--hedge-budget=-0.5"}),
            "config error: --hedge-budget must be >= 0, got '-0.5'");
}

TEST(ArgParse, TwoSidedBoundsAreInclusiveOrExclusivePerEnd) {
  const auto bounded = [](Range range) {
    ArgParser p("t", "d");
    p.add_real("x", "value", "0.5", range);
    return p;
  };
  EXPECT_EQ(parse_error(bounded(Range::closed(0.0, 1.0)), {"--x", "0"}), "");
  EXPECT_EQ(parse_error(bounded(Range::closed(0.0, 1.0)), {"--x", "1"}), "");
  EXPECT_EQ(parse_error(bounded(Range::closed(0.0, 1.0)), {"--x", "1.5"}),
            "config error: --x must be in [0, 1], got '1.5'");
  EXPECT_EQ(parse_error(bounded(Range::closed_open(0.0, 1.0)), {"--x", "0"}), "");
  EXPECT_EQ(parse_error(bounded(Range::closed_open(0.0, 1.0)), {"--x", "1"}),
            "config error: --x must be in [0, 1), got '1'");
  EXPECT_EQ(parse_error(bounded(Range::open_closed(0.0, 1.0)), {"--x", "1"}), "");
  EXPECT_EQ(parse_error(bounded(Range::open_closed(0.0, 1.0)), {"--x", "0"}),
            "config error: --x must be in (0, 1], got '0'");
  EXPECT_EQ(parse_error(bounded(Range::above(0.25)), {"--x", "0.25"}),
            "config error: --x must be > 0.25, got '0.25'");
  EXPECT_EQ(parse_error(bounded(Range::at_least(0.25)), {"--x", "0.25"}), "");
}

TEST(ArgParse, IntegerBoundsNameTheFlag) {
  ArgParser p("t", "d");
  p.add_int("devices", "count", "3", Range::closed(1, 64));
  ArgParser high = p;
  ArgParser low = p;
  p.parse({"--devices", "64"});
  EXPECT_EQ(p.integer("devices"), 64);
  EXPECT_EQ(parse_error(high, {"--devices", "65"}),
            "config error: --devices must be in [1, 64], got '65'");
  EXPECT_EQ(parse_error(low, {"--devices=0"}),
            "config error: --devices must be in [1, 64], got '0'");
}

TEST(ArgParse, ChoicesListTheValidNames) {
  ArgParser p("t", "d");
  p.add_choice("router", "routing policy", "least-loaded", {"round-robin", "least-loaded"});
  ArgParser bad = p;
  p.parse({"--router", "round-robin"});
  EXPECT_EQ(p.option("router"), "round-robin");
  EXPECT_EQ(parse_error(bad, {"--router", "randomly"}),
            "config error: --router must be one of round-robin | least-loaded, got 'randomly'");
}

TEST(ArgParse, DefaultThatViolatesItsOwnRangeIsRejected) {
  // Defaults go through the same checks as user values: a wrong declaration
  // fails on every run, not only when the flag is left out in production.
  ArgParser real("t", "d");
  real.add_real("rate", "fraction", "1.5", Range::closed(0.0, 1.0));
  EXPECT_EQ(parse_error(real, {}), "config error: --rate must be in [0, 1], got '1.5'");
  ArgParser choice("t", "d");
  choice.add_choice("mode", "mode", "auto", {"on", "off"});
  EXPECT_EQ(parse_error(choice, {}), "config error: --mode must be one of on | off, got 'auto'");
  // A user value that is in range replaces the bad default before the check.
  real.parse({"--rate", "0.5"});
  EXPECT_DOUBLE_EQ(real.real("rate"), 0.5);
}

TEST(ArgParse, IntegerOverflowIsRejected) {
  ArgParser p("t", "d");
  p.add_int("seed", "rng seed", "42");
  ArgParser under = p;
  ArgParser max = p;
  EXPECT_EQ(parse_error(p, {"--seed", "99999999999999999999"}),
            "config error: --seed must be a 64-bit integer, got '99999999999999999999'");
  EXPECT_EQ(parse_error(under, {"--seed", "-99999999999999999999"}),
            "config error: --seed must be a 64-bit integer, got '-99999999999999999999'");
  max.parse({"--seed", "9223372036854775807"});
  EXPECT_EQ(max.integer("seed"), std::numeric_limits<std::int64_t>::max());
}

TEST(ArgParse, NarrowingGetterRejectsValuesOutsideTheTargetType) {
  ArgParser p("t", "d");
  p.add_int("epochs", "count", "4294967297");
  p.parse({});
  EXPECT_EQ(p.integer("epochs"), 4294967297);
  try {
    p.integer<int>("epochs");
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_STREQ(e.what(),
                 "config error: --epochs must be in [-2147483648, 2147483647], got '4294967297'");
  }
  ArgParser ok("t", "d");
  ok.add_int("epochs", "count", "-7");
  ok.parse({});
  EXPECT_EQ(ok.integer<int>("epochs"), -7);
}

TEST(ArgParse, NonFiniteRealsAreRejected) {
  for (const char* v : {"nan", "NaN", "inf", "-inf", "infinity", "1e999"}) {
    ArgParser p("t", "d");
    p.add_real("fps", "rate", "30");
    EXPECT_EQ(parse_error(p, {"--fps", v}),
              std::string("config error: --fps must be a finite number, got '") + v + "'")
        << v;
  }
}

TEST(ArgParse, EmptyDefaultMakesANumericOptionOptional) {
  ArgParser p("t", "d");
  p.add_real("fps", "rate (empty = automatic)", "", Range::above(0.0));
  ArgParser given = p;
  ArgParser bad = p;
  p.parse({});
  EXPECT_EQ(p.option("fps"), "");
  EXPECT_THROW(p.real("fps"), ConfigError);
  given.parse({"--fps", "120"});
  EXPECT_DOUBLE_EQ(given.real("fps"), 120.0);
  EXPECT_EQ(parse_error(bad, {"--fps", "0"}), "config error: --fps must be > 0, got '0'");
}

TEST(ArgParse, RealListChecksEveryElement) {
  ArgParser p("t", "d");
  p.add_reals("rates", "pruning rates", "0,0.25,0.5", Range::closed_open(0.0, 1.0));
  ArgParser garbage = p;
  ArgParser empty = p;
  ArgParser range = p;
  p.parse({});
  EXPECT_EQ(p.reals("rates"), (std::vector<double>{0.0, 0.25, 0.5}));
  EXPECT_EQ(parse_error(garbage, {"--rates", "0,abc"}),
            "config error: --rates must be a finite number, got 'abc'");
  EXPECT_EQ(parse_error(empty, {"--rates", ""}),
            "config error: --rates must be a finite number, got ''");
  EXPECT_EQ(parse_error(range, {"--rates", "0,1.5"}),
            "config error: --rates must be in [0, 1), got '1.5'");
}

TEST(ArgParse, GettersRejectAnotherType) {
  ArgParser p = make_parser();
  EXPECT_THROW(p.real("rate"), ConfigError);  // typed values exist only after parse()
  p.parse({});
  EXPECT_THROW(p.integer("rate"), ConfigError);
  EXPECT_THROW(p.real("name"), ConfigError);
  EXPECT_THROW(p.real("undeclared"), ConfigError);
}

TEST(ArgParse, SplitHelper) {
  EXPECT_EQ(split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(split("solo", ','), (std::vector<std::string>{"solo"}));
  EXPECT_EQ(split("a,,b", ','), (std::vector<std::string>{"a", "", "b"}));
}

}  // namespace
}  // namespace adaflow

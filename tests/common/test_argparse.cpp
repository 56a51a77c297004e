#include "adaflow/common/argparse.hpp"

#include <gtest/gtest.h>

#include "adaflow/common/error.hpp"

namespace adaflow {
namespace {

ArgParser make_parser() {
  ArgParser p("tool", "test parser");
  p.add_flag("verbose", "chatty output");
  p.add_option("rate", "pruning rate", "0.5");
  p.add_option("name", "a string");
  return p;
}

TEST(ArgParse, DefaultsApply) {
  ArgParser p = make_parser();
  p.parse({});
  EXPECT_FALSE(p.flag("verbose"));
  EXPECT_FALSE(p.has("rate"));
  EXPECT_DOUBLE_EQ(p.option_double("rate"), 0.5);
  EXPECT_EQ(p.option("name"), "");
}

TEST(ArgParse, SeparateValueSyntax) {
  ArgParser p = make_parser();
  p.parse({"--rate", "0.75"});
  EXPECT_DOUBLE_EQ(p.option_double("rate"), 0.75);
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

TEST(ArgParse, NumericValidation) {
  ArgParser p = make_parser();
  p.parse({"--rate", "abc"});
  EXPECT_THROW(p.option_double("rate"), ConfigError);
}

TEST(ArgParse, IntOption) {
  ArgParser p("t", "d");
  p.add_option("n", "count", "3");
  p.parse({});
  EXPECT_EQ(p.option_int("n"), 3);
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
  // The fleet CLI's chaos/health timeouts go through these helpers; the
  // error must name the offending flag so a sweep script's failure is
  // actionable.
  ArgParser p("t", "d");
  p.add_option("probe-interval", "seconds", "1.0");
  p.parse({"--probe-interval", "-1"});
  try {
    p.option_positive_double("probe-interval");
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("--probe-interval"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("-1"), std::string::npos);
  }
  ArgParser zero("t", "d");
  zero.add_option("suspect-timeout", "seconds", "0");
  zero.parse({});
  EXPECT_THROW(zero.option_positive_double("suspect-timeout"), ConfigError);
  ArgParser garbage("t", "d");
  garbage.add_option("probe-timeout", "seconds", "soon");
  garbage.parse({});
  EXPECT_THROW(garbage.option_positive_double("probe-timeout"), ConfigError);
  ArgParser ok("t", "d");
  ok.add_option("probe-interval", "seconds", "0.25");
  ok.parse({});
  EXPECT_DOUBLE_EQ(ok.option_positive_double("probe-interval"), 0.25);
}

TEST(ArgParse, NonnegativeDoubleAllowsZeroButRejectsNegative) {
  ArgParser p("t", "d");
  p.add_option("hedge-budget", "seconds, 0 disables", "0");
  p.parse({});
  EXPECT_DOUBLE_EQ(p.option_nonnegative_double("hedge-budget"), 0.0);
  ArgParser neg("t", "d");
  neg.add_option("hedge-budget", "seconds", "1");
  neg.parse({"--hedge-budget=-0.5"});
  try {
    neg.option_nonnegative_double("hedge-budget");
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("--hedge-budget"), std::string::npos);
  }
}

TEST(ArgParse, SplitHelper) {
  EXPECT_EQ(split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(split("solo", ','), (std::vector<std::string>{"solo"}));
  EXPECT_EQ(split("a,,b", ','), (std::vector<std::string>{"a", "", "b"}));
}

}  // namespace
}  // namespace adaflow

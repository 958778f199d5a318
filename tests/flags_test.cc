// Tests for the CLI flag parser (cli/flags.h): value forms, unknown flags and
// malformed numeric values.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cli/flags.h"

namespace cloudgen {
namespace {

const std::vector<FlagSpec> kSpecs = {{"name", FlagType::kString},
                                      {"count", FlagType::kLong},
                                      {"rate", FlagType::kDouble},
                                      {"verbose", FlagType::kBool}};

// Parses `args` (without the program name) against kSpecs.
bool ParseArgs(std::vector<std::string> args, Flags* flags) {
  std::vector<char*> argv = {const_cast<char*>("cloudgen")};
  for (std::string& arg : args) {
    argv.push_back(arg.data());
  }
  return flags->Parse(static_cast<int>(argv.size()), argv.data(), 1, kSpecs);
}

TEST(Flags, EqualsSeparateAndBooleanForms) {
  Flags flags;
  ASSERT_TRUE(ParseArgs({"--name=a", "--count", "12", "--rate=-0.5", "--verbose"}, &flags));
  EXPECT_EQ(flags.GetString("name", ""), "a");
  EXPECT_EQ(flags.GetLong("count", 0), 12);
  EXPECT_EQ(flags.GetDouble("rate", 0.0), -0.5);
  EXPECT_TRUE(flags.Has("verbose"));
  EXPECT_FALSE(flags.Has("missing"));
  EXPECT_EQ(flags.GetLong("missing", 7), 7);
}

TEST(Flags, RejectsUnknownFlag) {
  Flags flags;
  EXPECT_FALSE(ParseArgs({"--name", "a", "--bogus", "7"}, &flags));
  Flags boolean;
  EXPECT_FALSE(ParseArgs({"--bogus"}, &boolean));
}

TEST(Flags, RejectsStrayArgument) {
  Flags flags;
  EXPECT_FALSE(ParseArgs({"positional"}, &flags));
}

TEST(Flags, RejectsMalformedNumbers) {
  for (const char* bad : {"--count=1x", "--count=abc", "--count=", "--count=1.5",
                          "--count=99999999999999999999", "--rate=1x", "--rate=abc",
                          "--rate=", "--rate=1e999", "--rate=nan", "--rate=inf"}) {
    Flags flags;
    EXPECT_FALSE(ParseArgs({bad}, &flags)) << bad;
  }
}

TEST(Flags, StringAndBooleanValuesAreNotChecked) {
  Flags flags;
  ASSERT_TRUE(ParseArgs({"--name=1x", "--verbose", "-"}, &flags));
  EXPECT_EQ(flags.GetString("name", ""), "1x");
  EXPECT_TRUE(flags.Has("verbose"));
}

}  // namespace
}  // namespace cloudgen

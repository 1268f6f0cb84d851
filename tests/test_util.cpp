// Strict number parsing (util::parse_u64 / parse_int / parse_double) and
// the CLI flag helpers built on it (obs::int_flag_value / u64_flag_value /
// nonnegative_flag_value): a value is accepted only when the WHOLE string
// is a number in range, and a CLI flag with anything else exits 2 with a
// usage message.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "obs/cli.h"
#include "util/strings.h"

namespace fsr {
namespace {

TEST(ParseU64, AcceptsWholeDecimalStringsInRange) {
  EXPECT_EQ(util::parse_u64("0"), std::optional<std::uint64_t>(0));
  EXPECT_EQ(util::parse_u64("12"), std::optional<std::uint64_t>(12));
  EXPECT_EQ(util::parse_u64("18446744073709551615"),
            std::optional<std::uint64_t>(
                std::numeric_limits<std::uint64_t>::max()));
}

TEST(ParseU64, RejectsPartialSignedAndOutOfRangeStrings) {
  for (const char* text :
       {"", "12abc", "4x", "abc", "1e6", " 1", "1 ", "+1", "-1", "0x10",
        "18446744073709551616", "99999999999999999999999"}) {
    EXPECT_EQ(util::parse_u64(text), std::nullopt) << "'" << text << "'";
  }
}

TEST(ParseInt, AcceptsWholeDecimalStringsInRange) {
  EXPECT_EQ(util::parse_int("4"), std::optional<int>(4));
  EXPECT_EQ(util::parse_int("-3"), std::optional<int>(-3));
  EXPECT_EQ(util::parse_int("65535", 0, 65535), std::optional<int>(65535));
  EXPECT_EQ(util::parse_int("2147483647"),
            std::optional<int>(std::numeric_limits<int>::max()));
}

TEST(ParseInt, RejectsPartialAndOutOfRangeStrings) {
  for (const char* text :
       {"", "4x", "abc", "1e6", "1.5", " 4", "4 ", "+4", "--4",
        "2147483648", "-2147483649"}) {
    EXPECT_EQ(util::parse_int(text), std::nullopt) << "'" << text << "'";
  }
  EXPECT_EQ(util::parse_int("0", 1), std::nullopt);
  EXPECT_EQ(util::parse_int("65536", 0, 65535), std::nullopt);
  EXPECT_EQ(util::parse_int("-1", 0, 65535), std::nullopt);
}

TEST(ParseDouble, AcceptsWholeFiniteNonNegativeNumbers) {
  EXPECT_EQ(util::parse_double("5"), std::optional<double>(5.0));
  EXPECT_EQ(util::parse_double("0"), std::optional<double>(0.0));
  EXPECT_EQ(util::parse_double("0.25"), std::optional<double>(0.25));
  EXPECT_EQ(util::parse_double("1e3"), std::optional<double>(1000.0));
  EXPECT_EQ(util::parse_double("1000.5"), std::optional<double>(1000.5));
}

TEST(ParseDouble, RejectsPartialSignedAndNonFiniteStrings) {
  for (const char* text :
       {"", "5x", "abc", " 5", "5 ", "+5", "-1", "-0", "-0.5", "1e", "0x10",
        "inf", "nan", "1e400", "5ms"}) {
    EXPECT_EQ(util::parse_double(text), std::nullopt) << "'" << text << "'";
  }
}

/// argv for one "--flag value" pair, as main() sees it.
struct Argv {
  explicit Argv(std::vector<std::string> args) : storage(std::move(args)) {
    for (std::string& arg : storage) pointers.push_back(arg.data());
  }
  int argc() const { return static_cast<int>(pointers.size()); }
  char** argv() { return pointers.data(); }
  std::vector<std::string> storage;
  std::vector<char*> pointers;
};

TEST(FlagValue, ParsesAndAdvancesPastTheValue) {
  Argv args({"tool", "--threads", "4", "--seed", "12"});
  int i = 1;
  EXPECT_EQ(obs::int_flag_value(args.argc(), args.argv(), i, "tool",
                                "--threads", 1),
            4);
  EXPECT_EQ(i, 2);
  i = 3;
  EXPECT_EQ(obs::u64_flag_value(args.argc(), args.argv(), i, "tool",
                                "--seed"),
            12u);
  EXPECT_EQ(i, 4);
  Argv slow({"tool", "--slow-ms", "2.5"});
  i = 1;
  EXPECT_EQ(obs::nonnegative_flag_value(slow.argc(), slow.argv(), i, "tool",
                                        "--slow-ms"),
            2.5);
  EXPECT_EQ(i, 2);
}

TEST(FlagValueDeathTest, BadValuesExitTwoWithAUsageMessage) {
  const auto int_flag = [](std::string value) {
    Argv args({"tool", "--threads", std::move(value)});
    int i = 1;
    obs::int_flag_value(args.argc(), args.argv(), i, "tool", "--threads", 1);
  };
  const auto u64_flag = [](std::string value) {
    Argv args({"tool", "--seed", std::move(value)});
    int i = 1;
    obs::u64_flag_value(args.argc(), args.argv(), i, "tool", "--seed");
  };
  EXPECT_EXIT(int_flag("4x"), ::testing::ExitedWithCode(2),
              "tool: --threads needs an integer >= 1, not '4x'");
  EXPECT_EXIT(int_flag("abc"), ::testing::ExitedWithCode(2), "--threads");
  EXPECT_EXIT(int_flag("0"), ::testing::ExitedWithCode(2), "--threads");
  EXPECT_EXIT(u64_flag("12abc"), ::testing::ExitedWithCode(2),
              "tool: --seed needs an integer >= 0, not '12abc'");
  EXPECT_EXIT(u64_flag("1e6"), ::testing::ExitedWithCode(2), "--seed");
  const auto number_flag = [](std::string value) {
    Argv args({"tool", "--slow-ms", std::move(value)});
    int i = 1;
    obs::nonnegative_flag_value(args.argc(), args.argv(), i, "tool",
                                "--slow-ms");
  };
  EXPECT_EXIT(number_flag("5x"), ::testing::ExitedWithCode(2),
              "tool: --slow-ms needs a number >= 0, not '5x'");
  EXPECT_EXIT(number_flag("abc"), ::testing::ExitedWithCode(2), "--slow-ms");
  EXPECT_EXIT(number_flag("-1"), ::testing::ExitedWithCode(2), "--slow-ms");
  EXPECT_EXIT(
      {
        Argv args({"tool", "--seed"});
        int i = 1;
        obs::u64_flag_value(args.argc(), args.argv(), i, "tool", "--seed");
      },
      ::testing::ExitedWithCode(2), "--seed requires a value");
}

}  // namespace
}  // namespace fsr

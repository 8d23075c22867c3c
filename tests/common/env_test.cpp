// The HCL_* environment parser (common/env.h): a value is taken whole and in
// range, or not at all — trailing junk, empty, negative, overflowing and
// out-of-range values all fall back to the caller's default.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <limits>
#include <string>

#include "common/env.h"

namespace hcl {
namespace {

constexpr const char* kVar = "HCL_ENV_TEST_VALUE";

/// Sets kVar for one test and unsets it afterwards.
class EnvTest : public ::testing::Test {
 protected:
  void TearDown() override { ::unsetenv(kVar); }
  static void set(const char* value) { ::setenv(kVar, value, 1); }
};

TEST_F(EnvTest, NumberParsesWholeInRangeValues) {
  set("42");
  EXPECT_EQ(env_number(kVar, 7, 0, 100), 42);
  set("64");
  EXPECT_EQ(env_number(kVar, 32, 1, 64), 64);  // bounds are inclusive
  set("1");
  EXPECT_EQ(env_number(kVar, 32, 1, 64), 1);
  set("-5");
  EXPECT_EQ(env_number(kVar, 7, -10, 10), -5);
  set("18446744073709551615");
  EXPECT_EQ(env_number<std::uint64_t>(kVar, 7, 0,
                                      std::numeric_limits<std::uint64_t>::max()),
            std::numeric_limits<std::uint64_t>::max());
}

TEST_F(EnvTest, NumberRejectsUnsetEmptyAndJunk) {
  EXPECT_EQ(env_number(kVar, 7, 0, 100), 7);  // unset
  for (const char* bad : {"", "abc", "12abc", "12 ", " 12", "+12", "1.5",
                          "0x10"}) {
    set(bad);
    EXPECT_EQ(env_number(kVar, 7, 0, 100), 7) << "value '" << bad << "'";
  }
}

TEST_F(EnvTest, NumberRejectsNegativeOverflowAndOutOfRange) {
  set("-1");  // must not wrap to SIZE_MAX (an unbounded cache)
  EXPECT_EQ(env_number<std::size_t>(kVar, 1024, 0, std::size_t{1} << 30),
            1024u);
  set("-1");
  EXPECT_EQ(env_number(kVar, 8, 0, 100), 8);
  set("99999999999999999999");
  EXPECT_EQ(env_number<std::int64_t>(kVar, 8, 0,
                                     std::numeric_limits<std::int64_t>::max()),
            8);
  set("18446744073709551616");  // UINT64_MAX + 1
  EXPECT_EQ(env_number<std::uint64_t>(kVar, 8, 0,
                                      std::numeric_limits<std::uint64_t>::max()),
            8u);
  set("65");
  EXPECT_EQ(env_number(kVar, 32, 1, 64), 32);
  set("0");
  EXPECT_EQ(env_number(kVar, 32, 1, 64), 32);
}

TEST_F(EnvTest, FloatingNumberFollowsTheSameRules) {
  set("2.5");
  EXPECT_DOUBLE_EQ(env_number(kVar, 2.0, 1.0, 1e6), 2.5);
  set("3");
  EXPECT_DOUBLE_EQ(env_number(kVar, 2.0, 1.0, 1e6), 3.0);
  // "abc" must not read as 0.0, which would mark every partition hot.
  for (const char* bad : {"", "abc", "2.5x", "-3", "0.5", "nan", "inf",
                          "1e999"}) {
    set(bad);
    EXPECT_DOUBLE_EQ(env_number(kVar, 2.0, 1.0, 1e6), 2.0)
        << "value '" << bad << "'";
  }
}

TEST_F(EnvTest, BoolTakesOnlyTheDocumentedSpellings) {
  for (const char* yes : {"1", "on", "true"}) {
    set(yes);
    EXPECT_TRUE(env_bool(kVar, false)) << yes;
  }
  for (const char* no : {"0", "off", "false"}) {
    set(no);
    EXPECT_FALSE(env_bool(kVar, true)) << no;
  }
  EXPECT_FALSE(env_bool(kVar, false));  // unset
  for (const char* bad : {"", "yes", "TRUE", "1 ", "truex", "-1"}) {
    set(bad);
    EXPECT_FALSE(env_bool(kVar, false)) << "value '" << bad << "'";
    EXPECT_TRUE(env_bool(kVar, true)) << "value '" << bad << "'";
  }
}

TEST_F(EnvTest, StringFallsBackOnlyWhenUnsetOrEmpty) {
  EXPECT_EQ(env_string(kVar, "dflt"), "dflt");
  set("");
  EXPECT_EQ(env_string(kVar, "dflt"), "dflt");
  set("trace.json");
  EXPECT_EQ(env_string(kVar, "dflt"), "trace.json");
  set(" padded ");
  EXPECT_EQ(env_string(kVar, "dflt"), " padded ");
}

}  // namespace
}  // namespace hcl

// Pins the typed env-parsing semantics of util/env.hpp: fallback on
// unset/empty/garbage/overflow/out-of-range values, strict whole-string
// parsing, minimum clamping. StudyConfig::from_env, FaultConfig::from_env
// and the bench banners all read their knobs through these helpers, so
// this is the one place the "invalid env never crashes a study" rule is
// proven.
#include <gtest/gtest.h>

#include "test_env_guard.hpp"
#include "util/env.hpp"

namespace h2r::util {
namespace {

using h2r::testing::EnvGuard;

constexpr const char* kVar = "H2R_ENV_TEST_VARIABLE";

TEST(EnvU64, UnsetAndEmptyFallBack) {
  {
    EnvGuard guard(kVar, nullptr);
    EXPECT_EQ(env_u64(kVar, 42), 42u);
  }
  {
    EnvGuard guard(kVar, "");
    EXPECT_EQ(env_u64(kVar, 42), 42u);
  }
}

TEST(EnvU64, ParsesPlainDecimals) {
  EnvGuard guard(kVar, "12345");
  EXPECT_EQ(env_u64(kVar, 1), 12345u);
}

TEST(EnvU64, RejectsGarbageAndPartialParses) {
  const char* bad[] = {"abc", "12abc", "-4", "+2", " 7", "7 ", "0x10", ""};
  for (const char* value : bad) {
    EnvGuard guard(kVar, value);
    EXPECT_EQ(env_u64(kVar, 9), 9u) << "value: '" << value << "'";
  }
}

TEST(EnvU64, RejectsOverflow) {
  // One past UINT64_MAX; strtoull saturates with ERANGE -> fallback.
  EnvGuard guard(kVar, "18446744073709551616");
  EXPECT_EQ(env_u64(kVar, 7), 7u);
}

TEST(EnvU64, AcceptsExactlyUint64Max) {
  EnvGuard guard(kVar, "18446744073709551615");
  EXPECT_EQ(env_u64(kVar, 7), 18446744073709551615ull);
}

TEST(EnvU64, EnforcesMinimum) {
  {
    EnvGuard guard(kVar, "0");
    EXPECT_EQ(env_u64(kVar, 5, 1), 5u);  // below minimum -> fallback
  }
  {
    EnvGuard guard(kVar, "0");
    EXPECT_EQ(env_u64(kVar, 5, 0), 0u);  // minimum 0 admits zero
  }
  {
    EnvGuard guard(kVar, "3");
    EXPECT_EQ(env_u64(kVar, 5, 4), 5u);
  }
}

TEST(ParseU64, AppliesTheEnvRuleToAnyText) {
  // The CLI's numeric flags share env_u64's whole-string rule.
  EXPECT_EQ(parse_u64("12345"), 12345u);
  EXPECT_EQ(parse_u64("0"), 0u);
  EXPECT_EQ(parse_u64("18446744073709551615"), 18446744073709551615ull);
  const char* bad[] = {"abc", "12abc", "-4", "+2", " 7", "7 ", "0x10", "",
                       "18446744073709551616"};
  for (const char* value : bad) {
    EXPECT_FALSE(parse_u64(value).has_value()) << "value: '" << value << "'";
  }
}

TEST(EnvDouble, ParsesInRangeValues) {
  {
    EnvGuard guard(kVar, "0.25");
    EXPECT_DOUBLE_EQ(env_double(kVar, 0.0), 0.25);
  }
  {
    EnvGuard guard(kVar, "1");
    EXPECT_DOUBLE_EQ(env_double(kVar, 0.0), 1.0);
  }
  {
    EnvGuard guard(kVar, "0");
    EXPECT_DOUBLE_EQ(env_double(kVar, 0.5), 0.0);
  }
}

TEST(EnvDouble, RejectsOutOfRangeGarbageAndNan) {
  const char* bad[] = {"1.5", "-0.1", "chaos", "0.5x", "nan", "inf", ""};
  for (const char* value : bad) {
    EnvGuard guard(kVar, value);
    EXPECT_DOUBLE_EQ(env_double(kVar, 0.125), 0.125)
        << "value: '" << value << "'";
  }
}

TEST(EnvDouble, HonorsCustomRange) {
  {
    EnvGuard guard(kVar, "250");
    EXPECT_DOUBLE_EQ(env_double(kVar, 1.0, 0.0, 1000.0), 250.0);
  }
  {
    EnvGuard guard(kVar, "1001");
    EXPECT_DOUBLE_EQ(env_double(kVar, 1.0, 0.0, 1000.0), 1.0);
  }
}

TEST(EnvFlag, UnsetEmptyAndZeroAreFalse) {
  {
    EnvGuard guard(kVar, nullptr);
    EXPECT_FALSE(env_flag(kVar));
  }
  {
    EnvGuard guard(kVar, "");
    EXPECT_FALSE(env_flag(kVar));
  }
  {
    EnvGuard guard(kVar, "0");
    EXPECT_FALSE(env_flag(kVar));
  }
}

TEST(EnvFlag, AnythingElseIsTrue) {
  const char* truthy[] = {"1", "yes", "true", "00", "no"};
  for (const char* value : truthy) {
    EnvGuard guard(kVar, value);
    EXPECT_TRUE(env_flag(kVar)) << "value: '" << value << "'";
  }
}

TEST(EnvString, FallsBackWhenUnsetOrEmpty) {
  {
    EnvGuard guard(kVar, nullptr);
    EXPECT_EQ(env_string(kVar, "dflt"), "dflt");
    EXPECT_EQ(env_string(kVar), "");
  }
  {
    EnvGuard guard(kVar, "");
    EXPECT_EQ(env_string(kVar, "dflt"), "dflt");
  }
  {
    EnvGuard guard(kVar, "/tmp/x.json");
    EXPECT_EQ(env_string(kVar, "dflt"), "/tmp/x.json");
  }
}

}  // namespace
}  // namespace h2r::util

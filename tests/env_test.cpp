// Pins the typed env-parsing semantics of util/env.hpp: fallback on
// unset/empty/garbage/overflow/out-of-range values, strict whole-string
// parsing, minimum clamping. StudyConfig::from_env, FaultConfig::from_env
// and the bench banners all read their knobs through these helpers, so
// this is the one place the "invalid env never crashes a study" rule is
// proven. It also holds README's knob table to the knobs the code reads.
#include <gtest/gtest.h>

#include <cctype>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <set>
#include <sstream>
#include <string>

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

// ---------------------------------------------------- README knob table

std::string read_file(const std::filesystem::path& path) {
  std::ifstream file(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return buffer.str();
}

/// Every string literal that is exactly an `H2R_…` name, in the .cpp and
/// .hpp files under the repo-relative `dirs`.
std::set<std::string> knob_literals(std::initializer_list<const char*> dirs) {
  std::set<std::string> names;
  for (const char* dir : dirs) {
    for (const auto& entry : std::filesystem::recursive_directory_iterator(
             std::filesystem::path(H2R_REPO_ROOT) / dir)) {
      const auto extension = entry.path().extension();
      if (!entry.is_regular_file() ||
          (extension != ".cpp" && extension != ".hpp")) {
        continue;
      }
      const std::string text = read_file(entry.path());
      for (std::size_t quote = text.find("\"H2R_");
           quote != std::string::npos;
           quote = text.find("\"H2R_", quote + 1)) {
        std::size_t end = quote + 5;
        while (end < text.size() &&
               (std::isupper(static_cast<unsigned char>(text[end])) ||
                std::isdigit(static_cast<unsigned char>(text[end])) ||
                text[end] == '_')) {
          ++end;
        }
        if (end > quote + 5 && end < text.size() && text[end] == '"') {
          names.insert(text.substr(quote + 1, end - quote - 1));
        }
      }
    }
  }
  return names;
}

/// The backticked `H2R_…` names in the first column of README's knob
/// table; a row may list several, joined by " / ".
std::set<std::string> readme_knobs() {
  std::istringstream readme{
      read_file(std::filesystem::path(H2R_REPO_ROOT) / "README.md")};
  std::set<std::string> names;
  bool in_table = false;
  for (std::string line; std::getline(readme, line);) {
    if (line == "| variable | effect |") {
      in_table = true;
      continue;
    }
    if (!in_table) continue;
    if (line.empty() || line[0] != '|') break;
    const std::string cell = line.substr(1, line.find('|', 1) - 1);
    for (std::size_t open = cell.find("`H2R_"); open != std::string::npos;
         open = cell.find("`H2R_", open + 1)) {
      const std::size_t close = cell.find('`', open + 1);
      if (close == std::string::npos) break;
      names.insert(cell.substr(open + 1, close - open - 1));
    }
  }
  return names;
}

TEST(KnobTable, EveryKnobTheCodeReadsHasAReadmeRow) {
  const std::set<std::string> table = readme_knobs();
  ASSERT_FALSE(table.empty()) << "README.md has no knob table";
  for (const std::string& name : knob_literals({"src", "tools", "bench"})) {
    EXPECT_EQ(table.count(name), 1u)
        << name << " has no row in README's knob table";
  }
}

TEST(KnobTable, EveryReadmeRowNamesAKnobTheCodeReads) {
  const std::set<std::string> code =
      knob_literals({"src", "tools", "bench", "tests"});
  for (const std::string& name : readme_knobs()) {
    EXPECT_EQ(code.count(name), 1u)
        << "README's knob table lists " << name
        << ", which no source file names";
  }
}

}  // namespace
}  // namespace h2r::util

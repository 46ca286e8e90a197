// Pins the one rule util/env.hpp applies to every H2R_* knob: unset or
// empty yields the default, anything else parses in full within its
// row's range or throws util::ConfigError naming the variable and the
// value; flags parse through their knob's row; an H2R_* name with no row
// is an error. The tests read real rows of util::kKnobs. It also holds
// README's knob table to kKnobs and kKnobs to the code.
#include <gtest/gtest.h>

#include <cctype>
#include <filesystem>
#include <fstream>
#include <functional>
#include <initializer_list>
#include <iterator>
#include <set>
#include <sstream>
#include <string>

#include "test_env_guard.hpp"
#include "util/env.hpp"

namespace h2r::util {
namespace {

using h2r::testing::EnvGuard;

/// `read()` must throw ConfigError naming `name` and quoting `value`.
void expect_rejected(const std::function<void()>& read,
                     const std::string& name, const std::string& value) {
  try {
    read();
    ADD_FAILURE() << name << "='" << value << "' was accepted";
  } catch (const ConfigError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find(name), std::string::npos) << what;
    EXPECT_NE(what.find("'" + value + "'"), std::string::npos) << what;
  }
}

TEST(EnvU64, UnsetAndEmptyFallBack) {
  {
    EnvGuard guard("H2R_HIST_BUDGET", nullptr);
    EXPECT_EQ(env("H2R_HIST_BUDGET", std::uint32_t{42}), 42u);
  }
  {
    EnvGuard guard("H2R_HIST_BUDGET", "");
    EXPECT_EQ(env("H2R_HIST_BUDGET", std::uint32_t{42}), 42u);
  }
}

TEST(EnvU64, ParsesPlainDecimals) {
  EnvGuard guard("H2R_HIST_BUDGET", "12345");
  EXPECT_EQ(env("H2R_HIST_BUDGET", std::uint32_t{1}), 12345u);
}

TEST(EnvU64, RejectsGarbageAndPartialParses) {
  for (const char* value : {"abc", "12abc", "-4", "+2", " 7", "7 ", "0x10"}) {
    EnvGuard guard("H2R_HIST_BUDGET", value);
    expect_rejected(
        [] { (void)env("H2R_HIST_BUDGET", std::uint32_t{9}); },
        "H2R_HIST_BUDGET", value);
  }
}

TEST(EnvU64, RejectsOverflow) {
  // One past UINT64_MAX.
  EnvGuard guard("H2R_FAULT_SEED", "18446744073709551616");
  expect_rejected([] { (void)env("H2R_FAULT_SEED", std::uint64_t{7}); },
                  "H2R_FAULT_SEED", "18446744073709551616");
}

TEST(EnvU64, AcceptsExactlyUint64Max) {
  EnvGuard guard("H2R_FAULT_SEED", "18446744073709551615");
  EXPECT_EQ(env("H2R_FAULT_SEED", std::uint64_t{7}),
            18446744073709551615ull);
}

TEST(EnvU64, EnforcesMinimum) {
  {
    EnvGuard guard("H2R_SEED", "0");  // H2R_SEED's row starts at 1
    expect_rejected([] { (void)env("H2R_SEED", std::uint64_t{5}); },
                    "H2R_SEED", "0");
  }
  {
    EnvGuard guard("H2R_HIST_BUDGET", "0");  // 0 = exact histograms
    EXPECT_EQ(env("H2R_HIST_BUDGET", std::uint32_t{5}), 0u);
  }
  {
    EnvGuard guard("H2R_SITE_DEADLINE_MS", "0");  // 0 = no deadline
    EXPECT_EQ(env("H2R_SITE_DEADLINE_MS", std::int64_t{5}), 0);
  }
}

TEST(EnvU64, RejectsValuesTooWideForTheField) {
  // A row's maximum is the width of the field it feeds: 2^32 + 1 used to
  // reach a uint32_t stream count as 1.
  {
    EnvGuard guard("H2R_POOL_MAX_STREAMS", "4294967295");
    EXPECT_EQ(env("H2R_POOL_MAX_STREAMS", std::uint32_t{100}),
              4294967295u);
  }
  {
    EnvGuard guard("H2R_POOL_MAX_STREAMS", "4294967297");
    expect_rejected(
        [] { (void)env("H2R_POOL_MAX_STREAMS", std::uint32_t{100}); },
        "H2R_POOL_MAX_STREAMS", "4294967297");
  }
  {
    EnvGuard guard("H2R_FAULT_RETRIES", "2147483648");  // INT_MAX + 1
    expect_rejected([] { (void)env("H2R_FAULT_RETRIES", 3); },
                    "H2R_FAULT_RETRIES", "2147483648");
  }
}

TEST(ParseU64, AppliesTheEnvRuleToAnyText) {
  // Flags and subcommand counts share the variables' whole-string rule.
  EXPECT_EQ(parse_count("site-count", "12345"), 12345u);
  EXPECT_EQ(parse_count("site-count", "0", 0), 0u);
  EXPECT_EQ(parse_count("site-count", "18446744073709551615"),
            18446744073709551615ull);
  const char* bad[] = {"abc", "12abc", "-4", "+2", " 7", "7 ", "0x10", "",
                       "18446744073709551616", "0"};
  for (const char* value : bad) {
    expect_rejected([value] { (void)parse_count("site-count", value); },
                    "site-count", value);
  }
}

TEST(ParseFlag, FlagsParseThroughTheirKnobsRow) {
  // `--hist-budget 0` means what H2R_HIST_BUDGET=0 means; errors name
  // the flag.
  EXPECT_EQ(parse_flag<std::uint32_t>("H2R_HIST_BUDGET", "--hist-budget", "0"),
            0u);
  expect_rejected(
      [] {
        (void)parse_flag<std::uint32_t>("H2R_HIST_BUDGET", "--hist-budget",
                                        "4294967296");
      },
      "--hist-budget", "4294967296");
  expect_rejected(
      [] {
        (void)parse_flag<std::size_t>("H2R_ALEXA_SITES", "--sites", "0");
      },
      "--sites", "0");
}

TEST(EnvDouble, ParsesInRangeValues) {
  {
    EnvGuard guard("H2R_FAULT_RATE", "0.25");
    EXPECT_DOUBLE_EQ(env("H2R_FAULT_RATE", 0.0), 0.25);
  }
  {
    EnvGuard guard("H2R_FAULT_RATE", "1");
    EXPECT_DOUBLE_EQ(env("H2R_FAULT_RATE", 0.0), 1.0);
  }
  {
    EnvGuard guard("H2R_FAULT_RATE", "0");
    EXPECT_DOUBLE_EQ(env("H2R_FAULT_RATE", 0.5), 0.0);
  }
  {
    EnvGuard guard("H2R_FAULT_RATE", "");
    EXPECT_DOUBLE_EQ(env("H2R_FAULT_RATE", 0.125), 0.125);
  }
}

TEST(EnvDouble, RejectsOutOfRangeGarbageAndNan) {
  for (const char* value : {"1.5", "-0.1", "chaos", "0.5x", "nan", "inf"}) {
    EnvGuard guard("H2R_FAULT_RATE", value);
    expect_rejected([] { (void)env("H2R_FAULT_RATE", 0.125); },
                    "H2R_FAULT_RATE", value);
  }
}

TEST(EnvFlag, UnsetEmptyAndZeroAreFalse) {
  for (const char* value : {static_cast<const char*>(nullptr), "", "0"}) {
    EnvGuard guard("H2R_RESUME", value);
    EXPECT_FALSE(env("H2R_RESUME", false));
  }
}

TEST(EnvFlag, AnythingElseIsTrue) {
  const char* truthy[] = {"1", "yes", "true", "00", "no"};
  for (const char* value : truthy) {
    EnvGuard guard("H2R_RESUME", value);
    EXPECT_TRUE(env("H2R_RESUME", false)) << "value: '" << value << "'";
  }
}

TEST(EnvString, FallsBackWhenUnsetOrEmpty) {
  {
    EnvGuard guard("H2R_JOURNAL", nullptr);
    EXPECT_EQ(env("H2R_JOURNAL", std::string("dflt")), "dflt");
    EXPECT_EQ(env("H2R_JOURNAL", std::string{}), "");
  }
  {
    EnvGuard guard("H2R_JOURNAL", "");
    EXPECT_EQ(env("H2R_JOURNAL", std::string("dflt")), "dflt");
  }
  {
    EnvGuard guard("H2R_JOURNAL", "/tmp/x.json");
    EXPECT_EQ(env("H2R_JOURNAL", std::string("dflt")), "/tmp/x.json");
  }
}

TEST(EnvString, ChoiceAcceptsOnlyItsWords) {
  for (const char* value : {"exact", "endless", "immediate"}) {
    EnvGuard guard("H2R_POLICY_DURATION", value);
    EXPECT_EQ(env("H2R_POLICY_DURATION", std::string("exact")), value);
  }
  for (const char* value : {"forever", "Exact", "exac", "exact|endless"}) {
    EnvGuard guard("H2R_POLICY_DURATION", value);
    expect_rejected(
        [] { (void)env("H2R_POLICY_DURATION", std::string("exact")); },
        "H2R_POLICY_DURATION", value);
  }
}

TEST(UnknownEnv, NameWithNoRowIsAnError) {
  EXPECT_NO_THROW(reject_unknown_env());
  // Spelled in two literals so the scan below does not count it as a knob.
  const std::string typo = std::string("H2R_") + "THREDS";
  EnvGuard guard(typo.c_str(), "4");
  expect_rejected([] { reject_unknown_env(); }, typo, "4");
}

// ---------------------------------------------------- README knob table

std::string read_file(const std::filesystem::path& path) {
  std::ifstream file(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return buffer.str();
}

/// Every string literal that is exactly an `H2R_…` name, in the .cpp and
/// .hpp files under the repo-relative `dirs`, outside the table itself.
std::set<std::string> knob_literals(std::initializer_list<const char*> dirs) {
  const std::filesystem::path table =
      std::filesystem::path(H2R_REPO_ROOT) / "src" / "util" / "env.hpp";
  std::set<std::string> names;
  for (const char* dir : dirs) {
    for (const auto& entry : std::filesystem::recursive_directory_iterator(
             std::filesystem::path(H2R_REPO_ROOT) / dir)) {
      const auto extension = entry.path().extension();
      if (!entry.is_regular_file() ||
          (extension != ".cpp" && extension != ".hpp") ||
          std::filesystem::equivalent(entry.path(), table)) {
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

std::set<std::string> table_knobs() {
  std::set<std::string> names;
  for (const Knob& knob : kKnobs) names.emplace(knob.name);
  return names;
}

TEST(KnobTable, ReadmeListsExactlyTheTable) {
  const std::set<std::string> table = table_knobs();
  EXPECT_EQ(table.size(), std::size(kKnobs)) << "a name has two rows";
  EXPECT_EQ(readme_knobs(), table);
}

TEST(KnobTable, EveryKnobTheCodeReadsHasAReadmeRow) {
  // README lists exactly the table (above), so a row is a README row.
  const std::set<std::string> table = table_knobs();
  for (const std::string& name :
       knob_literals({"src", "tools", "bench", "tests"})) {
    EXPECT_EQ(table.count(name), 1u)
        << name << " has no row in util::kKnobs (and README's knob table)";
  }
}

TEST(KnobTable, EveryReadmeRowNamesAKnobTheCodeReads) {
  const std::set<std::string> code =
      knob_literals({"src", "tools", "bench", "tests"});
  for (const std::string& name : readme_knobs()) {
    EXPECT_EQ(code.count(name), 1u)
        << "README's knob table lists " << name
        << ", which no reader outside the table names";
  }
}

}  // namespace
}  // namespace h2r::util

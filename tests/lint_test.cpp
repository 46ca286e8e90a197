// Fixture-driven tests for tools/h2r-lint: every rule id exercised in
// both directions (clean fixture -> zero findings; trip-wire fixture ->
// exactly the expected findings with rule id, path and line), the
// allow-annotation grammar, the baseline round trip, and the self-check
// that the real tree against the committed baseline is clean — which is
// what makes "un-annotating wall_now_ms breaks CI" a tested property
// rather than a promise.
//
// The contract section does the same for the cross-TU analyzer: fixtures
// under lint_fixtures/contract/ pin lock.order and hotpath.alloc both
// ways. Field coverage of merge, operator== and the codecs is not a lint
// rule; fields_test and the fields_pin compile tests cover it.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "json/json.hpp"
#include "lint.hpp"

namespace h2r::lint {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << "cannot open " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::vector<Finding> scan_fixture(const std::string& name,
                                  const Options& options = {}) {
  const std::string path = std::string(H2R_LINT_FIXTURE_DIR) + "/" + name;
  return scan_source("tests/lint_fixtures/" + name, read_file(path),
                     options);
}

/// (rule, line) pairs for terse expectations.
std::vector<std::pair<std::string, int>> keys(
    const std::vector<Finding>& findings) {
  std::vector<std::pair<std::string, int>> out;
  out.reserve(findings.size());
  for (const Finding& f : findings) out.emplace_back(f.rule, f.line);
  return out;
}

using Keys = std::vector<std::pair<std::string, int>>;

TEST(LintRules, InventoryIsStableAndSorted) {
  const auto ids = rule_ids();
  const std::vector<std::string_view> expected = {
      "allow.reason",    "ban.async",   "ban.clock",  "ban.rand",
      "ban.thread-id",   "ban.time",    "env.getenv", "hotpath.alloc",
      "lock.atomic-mix", "lock.guards", "lock.order", "order.unordered",
  };
  EXPECT_EQ(ids, expected);
  // Every rule explains itself (--explain RULE is user-facing surface).
  for (const auto id : ids) {
    EXPECT_FALSE(explain_rule(id).empty()) << id;
  }
  EXPECT_TRUE(explain_rule("nonexistent.rule").empty());
}

TEST(LintRules, CleanFixtureHasZeroFindings) {
  EXPECT_TRUE(scan_fixture("clean.cpp").empty());
}

TEST(LintRules, BanClockTripsOnChronoAndClockGettime) {
  EXPECT_EQ(keys(scan_fixture("ban_clock.cpp")),
            (Keys{{"ban.clock", 6}, {"ban.clock", 13}}));
}

TEST(LintRules, BanTimeTripsOnTimeCallButNotOnIdentifiersContainingTime) {
  EXPECT_EQ(keys(scan_fixture("ban_time.cpp")), (Keys{{"ban.time", 9}}));
}

TEST(LintRules, BanRandTripsOnRandAndRandomDevice) {
  EXPECT_EQ(keys(scan_fixture("ban_rand.cpp")),
            (Keys{{"ban.rand", 5}, {"ban.rand", 8}}));
}

TEST(LintRules, BanThreadIdTripsOnIdTypeAndGetId) {
  EXPECT_EQ(keys(scan_fixture("ban_thread_id.cpp")),
            (Keys{{"ban.thread-id", 4}, {"ban.thread-id", 7}}));
}

TEST(LintRules, BanAsyncTrips) {
  EXPECT_EQ(keys(scan_fixture("ban_async.cpp")), (Keys{{"ban.async", 6}}));
}

TEST(LintRules, EnvGetenvTripsOnReadAndWrite) {
  const auto findings = scan_fixture("env_getenv.cpp");
  EXPECT_EQ(keys(findings),
            (Keys{{"env.getenv", 5}, {"env.getenv", 7}}));
  for (const Finding& f : findings) {
    EXPECT_EQ(f.severity, Severity::kError);
    EXPECT_EQ(f.path, "tests/lint_fixtures/env_getenv.cpp");
  }
}

TEST(LintRules, EnvGetenvIsLegalInsideItsHomeModule) {
  // The same getenv calls are clean when the file IS the env module.
  const std::string body = read_file(std::string(H2R_LINT_REPO_ROOT) +
                                     "/src/util/env.cpp");
  EXPECT_TRUE(scan_source("src/util/env.cpp", body).empty());
  // ...and flagged anywhere else.
  EXPECT_FALSE(scan_source("src/dns/env.cpp", body).empty());
}

TEST(LintRules, OrderUnorderedTripsOnlyInSerializingUnits) {
  EXPECT_EQ(keys(scan_fixture("order_unordered.cpp")),
            (Keys{{"order.unordered", 12}}));
  EXPECT_TRUE(scan_fixture("order_unordered_clean.cpp").empty());
}

TEST(LintRules, LockGuardsWantsAGuardsComment) {
  const auto findings = scan_fixture("lock_guards.cpp");
  EXPECT_EQ(keys(findings), (Keys{{"lock.guards", 13}}));
  EXPECT_EQ(findings[0].severity, Severity::kWarning);
  EXPECT_TRUE(scan_fixture("lock_guards_clean.cpp").empty());
}

TEST(LintRules, AtomicMixWantsOneAccessDiscipline) {
  const auto findings = scan_fixture("lock_atomic_mix.cpp");
  EXPECT_EQ(keys(findings), (Keys{{"lock.atomic-mix", 13}}));
  EXPECT_EQ(findings[0].severity, Severity::kWarning);
  EXPECT_TRUE(scan_fixture("lock_atomic_clean.cpp").empty());
}

TEST(LintRules, StrictPromotesLockWarningsToErrors) {
  Options strict;
  strict.strict = true;
  const auto findings = scan_fixture("lock_guards.cpp", strict);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].severity, Severity::kError);
  EXPECT_TRUE(has_errors(findings));
}

TEST(LintLexer, StringsCommentsRawStringsAndDigitSeparatorsAreNotCode) {
  EXPECT_TRUE(scan_fixture("strings_and_comments.cpp").empty());
}

// ------------------------------------------------------------- allows

TEST(LintAllows, InlineAllowSuppressesNextCodeLineAndSameLine) {
  EXPECT_TRUE(scan_fixture("allow_inline.cpp").empty());
}

TEST(LintAllows, FileAllowSuppressesOnlyItsRules) {
  EXPECT_EQ(keys(scan_fixture("allow_file.cpp")),
            (Keys{{"ban.clock", 18}}));
}

TEST(LintAllows, AllowWithoutReasonIsItselfAFindingAndSuppressesNothing) {
  EXPECT_EQ(keys(scan_fixture("allow_missing_reason.cpp")),
            (Keys{{"allow.reason", 7}, {"ban.clock", 8}}));
}

// ------------------------------------------------------------ baseline

TEST(LintBaseline, FindingsRoundTripThroughJson) {
  const auto findings = scan_fixture("ban_clock.cpp");
  ASSERT_FALSE(findings.empty());
  const std::string text = json::write(findings_to_json(findings));
  const auto doc = json::parse(text);
  ASSERT_TRUE(doc.has_value()) << doc.error().message;
  const auto back = findings_from_json(*doc);
  ASSERT_TRUE(back.has_value()) << back.error().message;
  EXPECT_EQ(*back, findings);
}

TEST(LintBaseline, BaselineSuppressesMatchedFindingsOnly) {
  const auto findings = scan_fixture("ban_clock.cpp");
  ASSERT_EQ(findings.size(), 2u);
  // Baseline the first finding only.
  std::size_t suppressed = 0;
  const auto rest =
      apply_baseline(findings, {findings[0]}, &suppressed);
  EXPECT_EQ(suppressed, 1u);
  ASSERT_EQ(rest.size(), 1u);
  EXPECT_EQ(rest[0], findings[1]);
  // A full baseline silences the file; suppression is per-entry, so a
  // duplicate baseline entry does not hide a second new finding.
  suppressed = 0;
  EXPECT_TRUE(apply_baseline(findings, findings, &suppressed).empty());
  EXPECT_EQ(suppressed, 2u);
}

TEST(LintBaseline, MatchIsBySnippetNotLineNumber) {
  const auto findings = scan_fixture("ban_clock.cpp");
  ASSERT_FALSE(findings.empty());
  Finding entry = findings[0];
  entry.line = 9999;  // stale line from an older revision
  std::size_t suppressed = 0;
  const auto rest = apply_baseline(findings, {entry}, &suppressed);
  EXPECT_EQ(suppressed, 1u);
  EXPECT_EQ(rest.size(), findings.size() - 1);
}

TEST(LintBaseline, StrictParserRejectsMalformedEntries) {
  const char* bad[] = {
      "{}",                                                // not an array
      "[{\"rule\": \"ban.clock\"}]",                       // missing fields
      "[{\"rule\": 3, \"path\": \"a\", \"line\": 1, "
      "\"severity\": \"error\"}]",                         // mistyped rule
      "[{\"rule\": \"r\", \"path\": \"a\", \"line\": 0, "
      "\"severity\": \"error\"}]",                         // line < 1
      "[{\"rule\": \"r\", \"path\": \"a\", \"line\": 1, "
      "\"severity\": \"fatal\"}]",                         // unknown severity
      "[{\"rule\": \"r\", \"path\": \"a\", \"line\": 1, "
      "\"severity\": \"error\", \"extra\": true}]",        // unknown key
  };
  for (const char* text : bad) {
    const auto doc = json::parse(text);
    ASSERT_TRUE(doc.has_value());
    EXPECT_FALSE(findings_from_json(*doc).has_value()) << text;
  }
}

// ------------------------------------------------- contract (fixtures)

TEST(LintContract, LockOrderCycleIsFoundTransitively) {
  // refill() reaches stats_ through evict(): the cycle only exists in
  // the transitive lock sets, never inside one function body.
  const auto findings = scan_fixture("contract/lock_cycle.cpp");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "lock.order");
  EXPECT_EQ(findings[0].severity, Severity::kError);
  EXPECT_NE(findings[0].message.find("ShardedPool::pool_"),
            std::string::npos);
  EXPECT_NE(findings[0].message.find("ShardedPool::stats_"),
            std::string::npos);
}

TEST(LintContract, ConsistentLockOrderIsClean) {
  EXPECT_TRUE(scan_fixture("contract/lock_order_clean.cpp").empty());
}

TEST(LintContract, HotpathAllocFlagsOnlyTheAnnotatedFunction) {
  // Same allocations in classify_site (annotated) and cold_report
  // (not annotated): only the hot one trips, three ways.
  const auto findings = scan_fixture("contract/hotpath_alloc.cpp");
  EXPECT_EQ(keys(findings), (Keys{{"hotpath.alloc", 18},
                                  {"hotpath.alloc", 19},
                                  {"hotpath.alloc", 20}}));
  for (const Finding& f : findings) {
    EXPECT_EQ(f.severity, Severity::kWarning);
    EXPECT_NE(f.message.find("classify_site"), std::string::npos);
  }
}

TEST(LintContract, ArenaBackedHotFunctionIsClean) {
  EXPECT_TRUE(scan_fixture("contract/hotpath_clean.cpp").empty());
}

TEST(LintContract, StrictPromotesHotpathAllocToError) {
  Options strict;
  strict.strict = true;
  const auto findings = scan_fixture("contract/hotpath_alloc.cpp", strict);
  ASSERT_FALSE(findings.empty());
  EXPECT_EQ(findings[0].severity, Severity::kError);
}

TEST(LintContract, HotpathAnnotationWithoutReasonIsAnAllowReasonFinding) {
  // Reported on the annotated function's header line.
  const auto findings = scan_source("src/fixture.cpp",
                                    "// h2r-lint: hotpath\n"
                                    "void classify_site() {}\n");
  ASSERT_EQ(keys(findings), (Keys{{"allow.reason", 2}}));
  EXPECT_EQ(findings[0].severity, Severity::kError);
}

TEST(LintContract, NoContractOptionDisablesTheCrossTuPass) {
  Options options;
  options.contract = false;
  EXPECT_TRUE(scan_fixture("contract/lock_cycle.cpp", options).empty());
}

TEST(LintContract, ContractFindingsCarryFixHintsThroughJson) {
  const auto findings = scan_fixture("contract/lock_cycle.cpp");
  ASSERT_FALSE(findings.empty());
  ASSERT_FALSE(findings[0].fix_hint.empty());
  const std::string text = json::write(findings_to_json(findings));
  EXPECT_NE(text.find("fix_hint"), std::string::npos);
  const auto doc = json::parse(text);
  ASSERT_TRUE(doc.has_value());
  const auto back = findings_from_json(*doc);
  ASSERT_TRUE(back.has_value()) << back.error().message;
  EXPECT_EQ(*back, findings);
}

// --------------------------------------------------------------- cli

/// Runs the CLI entry point against an argv vector, capturing streams.
int cli(std::vector<std::string> args, std::string* out_text = nullptr,
        std::string* err_text = nullptr) {
  std::vector<const char*> argv = {"h2r-lint"};
  for (const std::string& a : args) argv.push_back(a.c_str());
  std::ostringstream out;
  std::ostringstream err;
  const int code =
      run_cli(static_cast<int>(argv.size()), argv.data(), out, err);
  if (out_text != nullptr) *out_text = out.str();
  if (err_text != nullptr) *err_text = err.str();
  return code;
}

TEST(LintCli, ExplainKnownRuleExitsZeroWithProse) {
  std::string out;
  EXPECT_EQ(cli({"--explain", "lock.order"}, &out), 0);
  EXPECT_NE(out.find("cycle"), std::string::npos);
  EXPECT_NE(out.find("allow(lock.order)"), std::string::npos);
}

TEST(LintCli, ExplainUnknownRuleIsUsageErrorNotVerdict) {
  std::string err;
  EXPECT_EQ(cli({"--explain", "no.such-rule"}, nullptr, &err), 2);
  EXPECT_NE(err.find("unknown rule"), std::string::npos);
}

TEST(LintCli, ZeroSourcesIsInternalErrorExitTwo) {
  // A repo root with no scannable sources means the gate did not run;
  // that must never be reported as "clean" (exit 0) or "findings"
  // (exit 1).
  const std::string empty_root = testing::TempDir() + "/h2r_lint_empty";
  std::filesystem::create_directories(empty_root + "/src");
  std::string err;
  EXPECT_EQ(cli({"--repo", empty_root}, nullptr, &err), 2);
  EXPECT_NE(err.find("h2r-lint: internal error:"), std::string::npos);
}

TEST(LintCli, FindingsExitOneAndCleanTreeExitsZero) {
  const std::string root = testing::TempDir() + "/h2r_lint_tree";
  std::filesystem::create_directories(root + "/src");
  {
    std::ofstream bad(root + "/src/bad.cpp", std::ios::binary);
    bad << "#include <chrono>\n"
           "auto now() { return std::chrono::steady_clock::now(); }\n";
  }
  std::string out;
  EXPECT_EQ(cli({"--repo", root}, &out), 1);
  EXPECT_NE(out.find("ban.clock"), std::string::npos);
  {
    std::ofstream good(root + "/src/bad.cpp", std::ios::binary);
    good << "int answer() { return 42; }\n";
  }
  EXPECT_EQ(cli({"--repo", root}), 0);
}

// ----------------------------------------------------------- self-check

TEST(LintSelfCheck, RealTreeAgainstCommittedBaselineIsClean) {
  Options strict;
  strict.strict = true;
  const std::string repo = H2R_LINT_REPO_ROOT;
  TreeReport report = scan_tree(repo, {"src", "bench", "tools"}, strict);
  EXPECT_GT(report.files_scanned, 100u);

  const std::string baseline_text =
      read_file(repo + "/tools/h2r-lint/baseline.json");
  const auto doc = json::parse(baseline_text);
  ASSERT_TRUE(doc.has_value()) << doc.error().message;
  const auto baseline = findings_from_json(*doc);
  ASSERT_TRUE(baseline.has_value()) << baseline.error().message;

  // The determinism contract: no baselined banned-API or env-hygiene
  // findings in src/ — every surviving use must be an inline audited
  // allow. The cross-TU rules are stricter still: a lock cycle or a hot
  // allocation is fixed or allowed inline, never grandfathered anywhere.
  for (const Finding& entry : *baseline) {
    const bool hard_rule = entry.rule.rfind("ban.", 0) == 0 ||
                           entry.rule.rfind("env.", 0) == 0;
    EXPECT_FALSE(hard_rule && entry.path.rfind("src/", 0) == 0)
        << "baseline may not grandfather " << entry.rule << " in "
        << entry.path;
    EXPECT_FALSE(entry.rule == "lock.order" || entry.rule == "hotpath.alloc")
        << "baseline may not grandfather " << entry.rule << " in "
        << entry.path;
  }

  std::size_t suppressed = 0;
  const auto rest =
      apply_baseline(std::move(report.findings), *baseline, &suppressed);
  std::string dump;
  for (const Finding& f : rest) {
    dump += f.path + ":" + std::to_string(f.line) + " " + f.rule + "\n";
  }
  EXPECT_TRUE(rest.empty()) << dump;
}

TEST(LintSelfCheck, UnannotatingWallClockInCrawlBreaksTheBuildGate) {
  const std::string repo = H2R_LINT_REPO_ROOT;
  std::string body = read_file(repo + "/src/browser/crawl.cpp");
  // The audited allows must be present...
  ASSERT_NE(body.find("h2r-lint: allow(ban.clock)"), std::string::npos);
  EXPECT_TRUE(scan_source("src/browser/crawl.cpp", body).empty());
  // ...and stripping them reintroduces the ban.clock errors, which is
  // exactly what the lint CI job would fail on.
  std::string stripped = body;
  const std::string tag = "h2r-lint: allow(ban.clock)";
  for (std::size_t pos = stripped.find(tag); pos != std::string::npos;
       pos = stripped.find(tag, pos)) {
    stripped.replace(pos, tag.size(), "audited-clock-use (disabled)");
  }
  const auto findings = scan_source("src/browser/crawl.cpp", stripped);
  ASSERT_FALSE(findings.empty());
  for (const Finding& f : findings) {
    EXPECT_EQ(f.rule, "ban.clock");
    EXPECT_EQ(f.severity, Severity::kError);
  }
  EXPECT_TRUE(has_errors(findings));
}

}  // namespace
}  // namespace h2r::lint

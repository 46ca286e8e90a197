// h2r-lint: the determinism & concurrency static-analysis pass.
//
// The engine's load-bearing property is that a study run is bit-identical
// across thread counts, seeds, resume points and fault rates. Every test
// that proves it (differential crawls, golden studies, metric snapshot
// diffs) is dynamic: it only catches a stray wall-clock read or an
// unordered-container iteration if a run happens to make the hazard
// visible. This tool is the static side of that contract — a token-level
// scanner (same hand-rolled philosophy as src/json: no libclang, no
// external deps) that walks src/, bench/ and tools/ and reports any use
// of an API or pattern that can silently break determinism.
//
// Rules (ids are stable; DESIGN.md §10 carries the authoritative table):
//
//   ban.clock      real-clock reads: std::chrono::{system,steady,
//                  high_resolution}_clock, clock_gettime
//   ban.time       C time APIs: time(), gettimeofday(), localtime(),
//                  gmtime(), mktime(), strftime()
//   ban.rand       non-seeded randomness: rand(), srand(),
//                  std::random_device
//   ban.thread-id  scheduler-dependent identity: std::thread::id,
//                  std::this_thread::get_id
//   ban.async      std::async (unordered completion; the crawl's worker
//                  pool is the sanctioned concurrency substrate)
//   env.getenv     raw getenv/setenv/unsetenv/putenv outside
//                  src/util/env.* — config must flow through the strict
//                  knob table and its reader (util::env)
//   order.unordered  std::unordered_{map,set,multimap,multiset} declared
//                  in a translation unit that also serializes or merges
//                  (to_json / merge( / operator==): iteration order is
//                  seed-dependent and would leak into reports
//   lock.guards    a mutex member/variable without a `guards:` comment
//                  naming the state it protects (warning; error in
//                  --strict/CI)
//   lock.atomic-mix  one std::atomic member accessed both through
//                  explicit memory-order calls (.load/.store/.fetch_*)
//                  and through implicit seq_cst operators (=, ++, +=) in
//                  the same file — the mixed discipline hides which
//                  orderings the algorithm actually needs (warning;
//                  error in --strict/CI)
//   allow.reason   an allow annotation with no ` -- reason` clause; an
//                  unexplained suppression is itself a finding
//
// On top of the per-TU token rules sits the cross-TU contract pass
// (model.hpp / contract.hpp), which builds a lightweight semantic model
// of every scanned file together and checks relations no single-file
// scan can see:
//
//   lock.order     the lock-acquisition graph over all modeled mutexes
//                  (members, namespace- and function-scope) is acyclic
//   hotpath.alloc  no heap allocation inside functions annotated
//                  `// h2r-lint: hotpath -- reason`
//
// Field coverage of merge, operator== and the JSON codecs is not a lint
// rule: records define their fields once, in a table the compiler checks
// (src/util/fields.hpp, DESIGN §15).
//
// Suppression grammar (audited allows, not blanket ignores):
//
//   // h2r-lint: allow(rule[, rule...]) -- <reason>
//       suppresses those rules on this line, or — when the annotation
//       stands on a comment-only line — on the next line with code.
//   // h2r-lint: allow-file(rule[, rule...]) -- <reason>
//       suppresses those rules for the whole file.
//
// An em-dash may stand in for the "--" separator. The reason is
// mandatory: annotations without one raise allow.reason.
//
// On top of inline allows sits an expected-findings baseline (JSON, same
// schema as --format=json findings) so adoption can be incremental:
// baselined findings are reported as suppressed, not failed. Baseline
// entries match on (rule, path, snippet) — not line numbers — so
// unrelated edits above a grandfathered finding do not un-suppress it.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "json/json.hpp"
#include "util/expected.hpp"

namespace h2r::lint {

enum class Severity { kWarning, kError };

std::string_view severity_name(Severity severity) noexcept;

/// One finding. `path` is repo-relative with forward slashes; `line` is
/// 1-based; `snippet` is the trimmed source line (used for baseline
/// matching, so it is part of a finding's identity).
struct Finding {
  std::string rule;
  std::string path;
  int line = 0;
  Severity severity = Severity::kError;
  std::string message;
  std::string snippet;
  /// A concrete remediation ("pick one global acquisition order for
  /// these mutexes ..."). Serialized only when non-empty; never part of
  /// baseline identity.
  std::string fix_hint;

  friend bool operator==(const Finding&, const Finding&) = default;
};

struct Options {
  /// Promote lock.* / hotpath.* warnings to errors (the CI posture).
  bool strict = false;
  /// Run the cross-TU contract pass (lock.order, hotpath.alloc) over
  /// the scanned set. On by default; --no-contract turns it off for
  /// token-rule-only scans.
  bool contract = true;
};

/// The stable rule-id list (sorted), for --list-rules and the tests.
std::vector<std::string_view> rule_ids();

/// The rationale + annotation grammar for one rule (--explain). Empty
/// when `rule` is not a known rule id.
std::string explain_rule(std::string_view rule);

/// Scans one file's text. `path` is the repo-relative path used both for
/// reporting and for path-scoped rules (env.getenv is legal inside
/// src/util/env.*). The contract pass runs over the single file (a lock
/// cycle within one TU is still found).
std::vector<Finding> scan_source(std::string_view path, std::string_view text,
                                 const Options& options = {});

struct TreeReport {
  std::vector<Finding> findings;   // sorted by (path, line, rule)
  std::size_t files_scanned = 0;
};

/// One in-memory source file for scan_files.
struct SourceFile {
  std::string path;  // repo-relative, forward slashes
  std::string text;
};

/// The core entry point: per-TU token rules on each file plus the
/// cross-TU contract pass over the whole set (unless options.contract is
/// off). Findings are allow-filtered, strict-promoted and sorted by
/// (path, line, rule).
TreeReport scan_files(const std::vector<SourceFile>& files,
                      const Options& options = {});

/// Walks `roots` (repo-relative directories or files) under `repo_root`
/// and scans every C++ source/header (.cpp .hpp .cc .hh .h .cxx).
TreeReport scan_tree(const std::string& repo_root,
                     const std::vector<std::string>& roots,
                     const Options& options = {});

/// Findings <-> JSON (strict round trip; findings_from_json rejects
/// missing/mistyped fields and unknown severities). The same schema is
/// the baseline-file format.
json::Value findings_to_json(const std::vector<Finding>& findings);
util::Expected<std::vector<Finding>> findings_from_json(
    const json::Value& value);

/// Removes findings matched by `baseline` (each baseline entry suppresses
/// at most one finding; match is on rule + path + snippet). Increments
/// *suppressed per suppression when non-null.
std::vector<Finding> apply_baseline(std::vector<Finding> findings,
                                    const std::vector<Finding>& baseline,
                                    std::size_t* suppressed = nullptr);

/// "path:line: error[rule]: message" lines plus a summary tail.
std::string render_text(const std::vector<Finding>& findings,
                        std::size_t files_scanned, std::size_t suppressed);

/// The machine-readable report: {"version": 1, "files_scanned": n,
/// "suppressed": k, "findings": [...]}.
json::Value report_to_json(const std::vector<Finding>& findings,
                           std::size_t files_scanned, std::size_t suppressed);

/// True when any finding is an error (after strict promotion) — the
/// process exit criterion.
bool has_errors(const std::vector<Finding>& findings);

/// The full CLI (argument parsing, scanning, rendering), extracted so
/// the exit-code contract is testable in-process:
///
///   0  clean (or warnings without --strict)
///   1  findings at error severity
///   2  usage error or internal failure — NEVER a lint verdict; the
///      tool prints a "h2r-lint: internal error:" / "usage:" marker on
///      stderr so CI logs can tell a broken gate from a failed one.
int run_cli(int argc, const char* const* argv, std::ostream& out,
            std::ostream& err);

}  // namespace h2r::lint

#include "lint.hpp"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <map>
#include <set>
#include <sstream>
#include <tuple>
#include <utility>

#include "contract.hpp"
#include "lexer.hpp"
#include "model.hpp"

namespace h2r::lint {

namespace {

// ------------------------------------------------------------ annotations

/// Parsed allow / allow-file annotations for one file, plus any
/// malformed-annotation findings. (The grammar is documented in lint.hpp;
/// spelling it out here would make this comment parse as an annotation.)
struct Allows {
  std::set<std::string> file_rules;
  // line number (1-based) -> rules allowed on that line
  std::map<int, std::set<std::string>> line_rules;
  std::vector<Finding> malformed;
};

/// The separator between the rule list and the mandatory reason: "--" or
/// a em-dash (UTF-8 \xE2\x80\x94).
bool consume_reason_separator(std::string_view& rest) {
  rest = trim(rest);
  if (rest.rfind("--", 0) == 0) {
    rest.remove_prefix(2);
    return true;
  }
  if (rest.rfind("\xE2\x80\x94", 0) == 0) {
    rest.remove_prefix(3);
    return true;
  }
  return false;
}

Allows parse_allows(std::string_view path, const std::vector<Line>& lines) {
  Allows allows;
  for (std::size_t idx = 0; idx < lines.size(); ++idx) {
    const int line_no = static_cast<int>(idx) + 1;
    std::string_view comment = lines[idx].comment;
    const std::size_t tag = comment.find("h2r-lint:");
    if (tag == std::string_view::npos) continue;
    std::string_view rest = trim(comment.substr(tag + 9));
    bool file_scope = false;
    if (rest.rfind("allow-file(", 0) == 0) {
      file_scope = true;
      rest.remove_prefix(11);
    } else if (rest.rfind("allow(", 0) == 0) {
      rest.remove_prefix(6);
    } else {
      continue;  // some other h2r-lint comment; not an annotation
    }
    const std::size_t close = rest.find(')');
    if (close == std::string_view::npos) continue;
    std::string_view rule_list = rest.substr(0, close);
    rest.remove_prefix(close + 1);

    std::set<std::string> rules;
    while (!rule_list.empty()) {
      const std::size_t comma = rule_list.find(',');
      rules.emplace(trim(rule_list.substr(0, comma)));
      if (comma == std::string_view::npos) break;
      rule_list.remove_prefix(comma + 1);
    }

    const bool has_sep = consume_reason_separator(rest);
    if (!has_sep || trim(rest).empty()) {
      Finding f;
      f.rule = "allow.reason";
      f.path = std::string(path);
      f.line = line_no;
      f.severity = Severity::kError;
      f.message =
          "allow annotation without a reason; write "
          "\"h2r-lint: allow(rule) -- why this use is safe\"";
      f.snippet = std::string(trim(comment));
      allows.malformed.push_back(std::move(f));
      continue;  // an unexplained allow does not suppress anything
    }

    if (file_scope) {
      allows.file_rules.insert(rules.begin(), rules.end());
      continue;
    }
    // A same-line annotation covers its own line; an annotation on a
    // comment-only line covers the next line that carries code.
    int target = line_no;
    if (trim(lines[idx].code).empty()) {
      for (std::size_t j = idx + 1; j < lines.size(); ++j) {
        if (!trim(lines[j].code).empty()) {
          target = static_cast<int>(j) + 1;
          break;
        }
      }
    }
    allows.line_rules[target].insert(rules.begin(), rules.end());
  }
  return allows;
}

// ------------------------------------------------------------------ rules

constexpr std::string_view kRuleIds[] = {
    "allow.reason",
    "ban.async",
    "ban.clock",
    "ban.rand",
    "ban.thread-id",
    "ban.time",
    "env.getenv",
    "hotpath.alloc",
    "lock.atomic-mix",
    "lock.guards",
    "lock.order",
    "order.unordered",
};

void add_finding(std::vector<Finding>& out, std::string_view path, int line,
                 std::string_view rule, Severity severity,
                 std::string message, std::string_view snippet) {
  Finding f;
  f.rule = std::string(rule);
  f.path = std::string(path);
  f.line = line;
  f.severity = severity;
  f.message = std::move(message);
  f.snippet = std::string(trim(snippet));
  out.push_back(std::move(f));
}

void rule_banned_apis(std::string_view path, const std::vector<Line>& lines,
                      std::vector<Finding>& out) {
  const bool env_home = path.rfind("src/util/env.", 0) == 0;
  for (std::size_t idx = 0; idx < lines.size(); ++idx) {
    const std::string& code = lines[idx].code;
    const int line_no = static_cast<int>(idx) + 1;

    for (std::string_view clock :
         {"system_clock", "steady_clock", "high_resolution_clock"}) {
      if (has_ident(code, clock)) {
        add_finding(out, path, line_no, "ban.clock", Severity::kError,
                    "real-clock read (std::chrono::" + std::string(clock) +
                        "): derive timing from util::SimTime so runs stay "
                        "reproducible",
                    code);
        break;
      }
    }
    if (has_call(code, "clock_gettime")) {
      add_finding(out, path, line_no, "ban.clock", Severity::kError,
                  "real-clock read (clock_gettime): derive timing from "
                  "util::SimTime so runs stay reproducible",
                  code);
    }

    for (std::string_view fn :
         {"time", "gettimeofday", "localtime", "gmtime", "mktime",
          "strftime"}) {
      if (has_call(code, fn)) {
        add_finding(out, path, line_no, "ban.time", Severity::kError,
                    "C time API (" + std::string(fn) +
                        "()): wall-clock dates have no place in a "
                        "simulated-time study",
                    code);
        break;
      }
    }

    if (has_call(code, "rand") || has_call(code, "srand") ||
        has_ident(code, "random_device")) {
      add_finding(out, path, line_no, "ban.rand", Severity::kError,
                  "non-seeded randomness: all entropy must come from "
                  "util::Rng seeded by (config seed, site)",
                  code);
    }

    if (code.find("this_thread::get_id") != std::string::npos ||
        has_ident(code, "thread::id")) {
      add_finding(out, path, line_no, "ban.thread-id", Severity::kError,
                  "thread identity is scheduler-dependent; key per-worker "
                  "state on the worker index instead",
                  code);
    }

    if (code.find("std::async") != std::string::npos) {
      add_finding(out, path, line_no, "ban.async", Severity::kError,
                  "std::async completion order is nondeterministic; use "
                  "the crawl worker pool (browser::crawl) instead",
                  code);
    }

    if (!env_home) {
      for (std::string_view fn :
           {"getenv", "secure_getenv", "setenv", "unsetenv", "putenv"}) {
        if (has_call(code, fn)) {
          add_finding(out, path, line_no, "env.getenv", Severity::kError,
                      "raw " + std::string(fn) +
                          "(): environment access must go through the "
                          "strict parsers in src/util/env.hpp",
                      code);
          break;
        }
      }
    }
  }
}

void rule_ordered_output(std::string_view path, const std::vector<Line>& lines,
                         std::vector<Finding>& out) {
  bool serializes = false;
  for (const Line& line : lines) {
    if (has_ident(line.code, "to_json") ||
        line.code.find("operator==") != std::string::npos ||
        has_call(line.code, "merge")) {
      serializes = true;
      break;
    }
  }
  if (!serializes) return;
  for (std::size_t idx = 0; idx < lines.size(); ++idx) {
    const std::string& code = lines[idx].code;
    if (trim(code).rfind('#', 0) == 0) continue;  // skip #include lines
    for (std::string_view container :
         {"unordered_map", "unordered_multimap", "unordered_set",
          "unordered_multiset"}) {
      if (has_ident(code, container)) {
        add_finding(
            out, path, static_cast<int>(idx) + 1, "order.unordered",
            Severity::kError,
            "std::" + std::string(container) +
                " in a translation unit that serializes or merges "
                "(to_json/merge/operator==): iteration order is "
                "seed-dependent — use std::map/std::set or sort before "
                "output",
            code);
        break;
      }
    }
  }
}

void rule_lock_guards(std::string_view path, const std::vector<Line>& lines,
                      std::vector<Finding>& out) {
  for (std::size_t idx = 0; idx < lines.size(); ++idx) {
    const std::string& code = lines[idx].code;
    std::size_t pos = std::string::npos;
    std::size_t type_len = 0;
    for (std::string_view type :
         {"std::mutex", "std::shared_mutex", "std::recursive_mutex",
          "std::timed_mutex"}) {
      std::size_t p = code.find(type);
      while (p != std::string::npos) {
        const std::size_t end = p + type.size();
        // Skip template-argument uses (std::lock_guard<std::mutex>) and
        // longer type names (std::mutex vs std::shared_mutex handled by
        // the boundary check).
        const bool left_ok = p == 0 || (code[p - 1] != '<');
        const bool right_ok = end >= code.size() ||
                              (code[end] != '>' && !ident_char(code[end]) &&
                               code[end] != ':');
        if (left_ok && right_ok) {
          pos = p;
          type_len = type.size();
          break;
        }
        p = code.find(type, p + 1);
      }
      if (pos != std::string::npos) break;
    }
    if (pos == std::string::npos) continue;
    // A declaration: the remainder is "<identifier>;" (optionally with an
    // empty brace initializer).
    std::string_view rest = trim(std::string_view(code).substr(pos + type_len));
    if (rest.empty() || !ident_char(rest.front())) continue;
    std::size_t name_end = 0;
    while (name_end < rest.size() && ident_char(rest[name_end])) ++name_end;
    const std::string name(rest.substr(0, name_end));
    std::string_view tail = trim(rest.substr(name_end));
    if (!tail.empty() && tail.rfind("{}", 0) == 0) {
      tail = trim(tail.substr(2));
    }
    if (tail != ";") continue;
    // Satisfied by a `guards:` comment on the same line or within the
    // three preceding lines.
    bool documented = false;
    for (std::size_t back = 0; back <= 3 && back <= idx; ++back) {
      if (lines[idx - back].comment.find("guards:") != std::string::npos) {
        documented = true;
        break;
      }
    }
    if (!documented) {
      add_finding(out, path, static_cast<int>(idx) + 1, "lock.guards",
                  Severity::kWarning,
                  "mutex '" + name +
                      "' without a `guards:` comment naming the state it "
                      "protects",
                  code);
    }
  }
}

void rule_atomic_mix(std::string_view path, const std::vector<Line>& lines,
                     std::vector<Finding>& out) {
  // Pass 1: names declared as std::atomic<...> members/variables.
  struct Decl {
    std::size_t line_idx;
  };
  std::map<std::string, Decl> atomics;
  for (std::size_t idx = 0; idx < lines.size(); ++idx) {
    const std::string& code = lines[idx].code;
    std::size_t pos = code.find("std::atomic<");
    if (pos == std::string::npos) continue;
    // Find the matching '>' (template args may nest, e.g. atomic<pair<..>>
    // is illegal but atomic<Foo<int>> is not unthinkable in a refactor).
    std::size_t depth = 0;
    std::size_t end = pos + 11;  // at '<'
    for (; end < code.size(); ++end) {
      if (code[end] == '<') ++depth;
      if (code[end] == '>' && --depth == 0) break;
    }
    if (end >= code.size()) continue;
    std::string_view rest = trim(std::string_view(code).substr(end + 1));
    if (rest.empty() || !ident_char(rest.front())) continue;
    std::size_t name_end = 0;
    while (name_end < rest.size() && ident_char(rest[name_end])) ++name_end;
    atomics.emplace(std::string(rest.substr(0, name_end)), Decl{idx});
  }
  if (atomics.empty()) return;

  // Pass 2: classify each use.
  for (const auto& [name, decl] : atomics) {
    bool explicit_ops = false;
    int implicit_line = 0;
    for (std::size_t idx = 0; idx < lines.size(); ++idx) {
      const std::string& code = lines[idx].code;
      std::size_t pos = 0;
      while ((pos = code.find(name, pos)) != std::string::npos) {
        const bool left_ok = pos == 0 || !ident_char(code[pos - 1]);
        std::size_t end = pos + name.size();
        if (!left_ok || (end < code.size() && ident_char(code[end]))) {
          pos += 1;
          continue;
        }
        std::string_view after = trim(std::string_view(code).substr(end));
        if (after.rfind(".load", 0) == 0 || after.rfind(".store", 0) == 0 ||
            after.rfind(".exchange", 0) == 0 ||
            after.rfind(".fetch_", 0) == 0 ||
            after.rfind(".compare_exchange", 0) == 0) {
          explicit_ops = true;
        } else if (idx != decl.line_idx) {
          const bool assign = after.rfind('=', 0) == 0 &&
                              (after.size() < 2 || after[1] != '=');
          const bool compound =
              after.rfind("+=", 0) == 0 || after.rfind("-=", 0) == 0 ||
              after.rfind("|=", 0) == 0 || after.rfind("&=", 0) == 0 ||
              after.rfind("^=", 0) == 0 || after.rfind("++", 0) == 0 ||
              after.rfind("--", 0) == 0;
          if ((assign || compound) && implicit_line == 0) {
            implicit_line = static_cast<int>(idx) + 1;
          }
        }
        pos = end;
      }
    }
    if (explicit_ops && implicit_line != 0) {
      add_finding(out, path, implicit_line, "lock.atomic-mix",
                  Severity::kWarning,
                  "atomic '" + name +
                      "' is accessed through explicit memory-order calls "
                      "elsewhere in this file but assigned with an "
                      "implicit seq_cst operator here; pick one "
                      "discipline",
                  lines[static_cast<std::size_t>(implicit_line) - 1].code);
    }
  }
}

// ------------------------------------------------------------------ io

// The Finding codec keeps its optional keys and unknown-key rejection by
// hand. Both sides bind every member, so a member added without codec
// support fails to compile.
util::Expected<Finding> finding_from_json(const json::Value& value) {
  if (!value.is_object()) {
    return util::unexpected(util::Error{"finding: not an object"});
  }
  const json::Object& obj = value.as_object();
  for (const auto& [key, unused] : obj) {
    (void)unused;
    if (key != "rule" && key != "path" && key != "line" &&
        key != "severity" && key != "message" && key != "snippet" &&
        key != "fix_hint") {
      return util::unexpected(util::Error{"finding: unknown key '" + key + "'"});
    }
  }
  Finding f;
  auto& [rule, path, line, severity, message, snippet, fix_hint] = f;
  std::string severity_text;
  for (const auto& [key, out, required] :
       std::initializer_list<std::tuple<const char*, std::string*, bool>>{
           {"rule", &rule, true},
           {"path", &path, true},
           {"severity", &severity_text, true},
           {"message", &message, false},
           {"snippet", &snippet, false},
           {"fix_hint", &fix_hint, false}}) {
    const json::Value* field = obj.find(key);
    if (field == nullptr && !required) continue;
    if (field == nullptr || !field->is_string()) {
      return util::unexpected(
          util::Error{std::string("finding: missing string '") + key + "'"});
    }
    *out = field->as_string();
  }
  const json::Value* line_value = obj.find("line");
  if (line_value == nullptr || !line_value->is_int() ||
      line_value->as_int() < 1) {
    return util::unexpected(
        util::Error{"finding: missing positive integer 'line'"});
  }
  line = static_cast<int>(line_value->as_int());
  if (severity_text == "error") {
    severity = Severity::kError;
  } else if (severity_text == "warning") {
    severity = Severity::kWarning;
  } else {
    return util::unexpected(
        util::Error{"finding: unknown severity '" + severity_text + "'"});
  }
  return f;
}

}  // namespace

std::string_view severity_name(Severity severity) noexcept {
  return severity == Severity::kError ? "error" : "warning";
}

std::vector<std::string_view> rule_ids() {
  return {std::begin(kRuleIds), std::end(kRuleIds)};
}

std::string explain_rule(std::string_view rule) {
  struct Entry {
    std::string_view id;
    std::string_view why;
    std::string_view grammar;
  };
  static constexpr Entry kExplanations[] = {
      {"allow.reason",
       "Every suppression must say why. An allow (or hotpath annotation) "
       "without a ` -- reason` clause is itself a finding: an unexplained "
       "exception rots into a blanket ignore.",
       "// h2r-lint: allow(rule) -- why this use is safe"},
      {"ban.async",
       "std::async completion order is scheduler-dependent; the crawl "
       "worker pool (browser::crawl) is the sanctioned concurrency "
       "substrate and keeps merges deterministic.",
       "// h2r-lint: allow(ban.async) -- reason"},
      {"ban.clock",
       "Real-clock reads (std::chrono system/steady/high_resolution "
       "clocks, clock_gettime) make runs irreproducible; derive all "
       "timing from util::SimTime.",
       "// h2r-lint: allow(ban.clock) -- reason"},
      {"ban.rand",
       "Unseeded randomness (rand, srand, std::random_device) breaks "
       "replay; all entropy must come from util::Rng seeded by (config "
       "seed, site).",
       "// h2r-lint: allow(ban.rand) -- reason"},
      {"ban.thread-id",
       "Thread identity is assigned by the scheduler; keying state on it "
       "makes threads=N diverge from threads=1. Use the worker index.",
       "// h2r-lint: allow(ban.thread-id) -- reason"},
      {"ban.time",
       "C time APIs (time, gettimeofday, localtime, ...) read the wall "
       "clock; a simulated-time study must not.",
       "// h2r-lint: allow(ban.time) -- reason"},
      {"env.getenv",
       "Raw getenv/setenv bypass the strict typed parsers in "
       "src/util/env.hpp; config read anywhere else escapes validation "
       "and the env snapshot.",
       "// h2r-lint: allow(env.getenv) -- reason"},
      {"hotpath.alloc",
       "Cross-TU: functions annotated `// h2r-lint: hotpath -- reason` "
       "run once per site across million-site studies; PR 7's arena "
       "pass bought 2.2x by keeping them allocation-free. Heap traffic "
       "here (operator new, make_unique/make_shared, by-value "
       "std::string/std::vector locals, push_back on heap-backed "
       "containers) is a perf regression.",
       "// h2r-lint: hotpath -- why this function is per-site hot\n"
       "// h2r-lint: allow(hotpath.alloc) -- why this allocation is cold"},
      {"lock.atomic-mix",
       "One atomic accessed both through explicit memory-order calls and "
       "implicit seq_cst operators hides which orderings the algorithm "
       "needs; pick one discipline per variable.",
       "// h2r-lint: allow(lock.atomic-mix) -- reason"},
      {"lock.guards",
       "A mutex without a `guards:` comment naming the state it protects "
       "cannot be audited; the comment is the lock's contract.",
       "// guards: <the state this mutex protects>"},
      {"lock.order",
       "Cross-TU: the analyzer builds the lock-acquisition graph over "
       "every modeled mutex (struct members, namespace- and "
       "function-scope declarations), including acquisitions reached "
       "through calls, and fails on any cycle — two threads taking the "
       "same pair of locks in opposite orders deadlock.",
       "// h2r-lint: allow(lock.order) -- reason  (on the acquisition)"},
      {"order.unordered",
       "std::unordered_* iteration order is hash-seed dependent; in a TU "
       "that serializes or merges it leaks into reports. Use std::map / "
       "std::set or sort before output.",
       "// h2r-lint: allow(order.unordered) -- reason"},
  };
  for (const Entry& entry : kExplanations) {
    if (entry.id == rule) {
      std::string out;
      out += entry.id;
      out += "\n\n";
      out += entry.why;
      out += "\n\nannotation grammar:\n  ";
      for (const char c : entry.grammar) {
        out += c;
        if (c == '\n') out += "  ";
      }
      out += '\n';
      return out;
    }
  }
  return {};
}

TreeReport scan_files(const std::vector<SourceFile>& files,
                      const Options& options) {
  TreeReport report;
  report.files_scanned = files.size();

  std::vector<Finding> raw;
  std::map<std::string, Allows> allows_by_path;
  std::vector<FileModel> models;
  models.reserve(files.size());
  for (const SourceFile& file : files) {
    const std::vector<Line> lines = lex(file.text);
    Allows allows = parse_allows(file.path, lines);

    rule_banned_apis(file.path, lines, raw);
    rule_ordered_output(file.path, lines, raw);
    rule_lock_guards(file.path, lines, raw);
    rule_atomic_mix(file.path, lines, raw);

    if (options.contract) models.push_back(parse_file(file.path, lines));
    allows_by_path.emplace(file.path, std::move(allows));
  }

  if (options.contract) {
    const Model model = build_model(models);
    std::vector<Finding> contract = contract_findings(model, options);
    raw.insert(raw.end(), std::make_move_iterator(contract.begin()),
               std::make_move_iterator(contract.end()));
  }

  std::vector<Finding>& findings = report.findings;
  for (Finding& f : raw) {
    const auto ait = allows_by_path.find(f.path);
    if (ait != allows_by_path.end()) {
      const Allows& allows = ait->second;
      if (allows.file_rules.count(f.rule) != 0) continue;
      const auto it = allows.line_rules.find(f.line);
      if (it != allows.line_rules.end() && it->second.count(f.rule) != 0) {
        continue;
      }
    }
    findings.push_back(std::move(f));
  }
  // Malformed annotations are findings in their own right and cannot be
  // allowed away.
  for (auto& [path, allows] : allows_by_path) {
    (void)path;
    for (Finding& f : allows.malformed) findings.push_back(std::move(f));
  }

  if (options.strict) {
    for (Finding& f : findings) f.severity = Severity::kError;
  }
  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              return std::tie(a.path, a.line, a.rule) <
                     std::tie(b.path, b.line, b.rule);
            });
  return report;
}

std::vector<Finding> scan_source(std::string_view path, std::string_view text,
                                 const Options& options) {
  std::vector<SourceFile> files;
  files.push_back({std::string(path), std::string(text)});
  return scan_files(files, options).findings;
}

TreeReport scan_tree(const std::string& repo_root,
                     const std::vector<std::string>& roots,
                     const Options& options) {
  namespace fs = std::filesystem;
  std::vector<fs::path> paths;
  const fs::path base(repo_root);
  for (const std::string& root : roots) {
    const fs::path dir = base / root;
    std::error_code ec;
    if (fs::is_regular_file(dir, ec)) {
      paths.push_back(dir);
      continue;
    }
    if (!fs::is_directory(dir, ec)) continue;
    for (fs::recursive_directory_iterator it(dir, ec), end; it != end;
         it.increment(ec)) {
      if (ec) break;
      if (!it->is_regular_file(ec)) continue;
      const std::string ext = it->path().extension().string();
      if (ext == ".cpp" || ext == ".hpp" || ext == ".cc" || ext == ".hh" ||
          ext == ".h" || ext == ".cxx") {
        paths.push_back(it->path());
      }
    }
  }
  std::sort(paths.begin(), paths.end());
  std::vector<SourceFile> files;
  files.reserve(paths.size());
  for (const fs::path& file : paths) {
    std::ifstream in(file, std::ios::binary);
    if (!in) continue;
    std::ostringstream buffer;
    buffer << in.rdbuf();
    files.push_back(
        {fs::relative(file, base).generic_string(), buffer.str()});
  }
  return scan_files(files, options);
}

json::Value findings_to_json(const std::vector<Finding>& findings) {
  json::Array array;
  array.reserve(findings.size());
  for (const Finding& f : findings) {
    const auto& [rule, path, line, severity, message, snippet, fix_hint] = f;
    json::Object obj;
    obj.set("rule", rule);
    obj.set("path", path);
    obj.set("line", static_cast<std::int64_t>(line));
    obj.set("severity", std::string(severity_name(severity)));
    obj.set("message", message);
    obj.set("snippet", snippet);
    if (!fix_hint.empty()) obj.set("fix_hint", fix_hint);
    array.emplace_back(std::move(obj));
  }
  return json::Value(std::move(array));
}

util::Expected<std::vector<Finding>> findings_from_json(
    const json::Value& value) {
  if (!value.is_array()) {
    return util::unexpected(util::Error{"findings: expected a JSON array"});
  }
  std::vector<Finding> findings;
  findings.reserve(value.as_array().size());
  for (const json::Value& entry : value.as_array()) {
    util::Expected<Finding> f = finding_from_json(entry);
    if (!f.has_value()) return util::unexpected(f.error());
    findings.push_back(std::move(*f));
  }
  return findings;
}

std::vector<Finding> apply_baseline(std::vector<Finding> findings,
                                    const std::vector<Finding>& baseline,
                                    std::size_t* suppressed) {
  std::vector<bool> matched(findings.size(), false);
  for (const Finding& entry : baseline) {
    for (std::size_t i = 0; i < findings.size(); ++i) {
      if (matched[i]) continue;
      const Finding& f = findings[i];
      if (f.rule == entry.rule && f.path == entry.path &&
          f.snippet == entry.snippet) {
        matched[i] = true;
        if (suppressed != nullptr) ++*suppressed;
        break;
      }
    }
  }
  std::vector<Finding> rest;
  rest.reserve(findings.size());
  for (std::size_t i = 0; i < findings.size(); ++i) {
    if (!matched[i]) rest.push_back(std::move(findings[i]));
  }
  return rest;
}

std::string render_text(const std::vector<Finding>& findings,
                        std::size_t files_scanned, std::size_t suppressed) {
  std::ostringstream out;
  std::size_t errors = 0;
  std::size_t warnings = 0;
  for (const Finding& f : findings) {
    (f.severity == Severity::kError ? errors : warnings) += 1;
    out << f.path << ':' << f.line << ": " << severity_name(f.severity)
        << '[' << f.rule << "]: " << f.message << '\n';
    if (!f.snippet.empty()) out << "    " << f.snippet << '\n';
  }
  out << "h2r-lint: " << files_scanned << " file(s) scanned, " << errors
      << " error(s), " << warnings << " warning(s)";
  if (suppressed != 0) {
    out << ", " << suppressed << " suppressed by baseline";
  }
  out << '\n';
  return out.str();
}

json::Value report_to_json(const std::vector<Finding>& findings,
                           std::size_t files_scanned,
                           std::size_t suppressed) {
  json::Object report;
  report.set("version", std::int64_t{1});
  report.set("files_scanned", static_cast<std::int64_t>(files_scanned));
  report.set("suppressed", static_cast<std::int64_t>(suppressed));
  report.set("findings", findings_to_json(findings));
  return json::Value(std::move(report));
}

bool has_errors(const std::vector<Finding>& findings) {
  return std::any_of(findings.begin(), findings.end(), [](const Finding& f) {
    return f.severity == Severity::kError;
  });
}

}  // namespace h2r::lint

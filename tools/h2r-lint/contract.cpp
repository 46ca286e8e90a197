#include "contract.hpp"

#include <algorithm>
#include <cctype>
#include <functional>
#include <initializer_list>
#include <map>
#include <set>
#include <sstream>

namespace h2r::lint {

namespace {

void add(std::vector<Finding>& out, std::string_view rule,
         std::string_view path, int line, Severity severity,
         std::string message, std::string_view snippet,
         std::string fix_hint) {
  Finding f;
  f.rule = std::string(rule);
  f.path = std::string(path);
  f.line = line;
  f.severity = severity;
  f.message = std::move(message);
  f.snippet = std::string(trim(snippet));
  f.fix_hint = std::move(fix_hint);
  out.push_back(std::move(f));
}

std::string at(const FunctionDef& fn) {
  return fn.path + ":" + std::to_string(fn.header_line);
}

// ----------------------------------------------------------- lock.order

void rule_lock_order(const Model& model, std::vector<Finding>& out) {
  // Mutex name resolution: members by enclosing type, then file scope.
  std::map<std::string, std::map<std::string, std::string>> by_owner;
  std::map<std::string, std::map<std::string, std::string>> by_file;
  for (const MutexDecl* m : model.mutexes) {
    const std::size_t sep = m->id.rfind("::");
    const std::string owner = m->id.substr(0, sep);
    if (owner == m->path) {
      by_file[m->path].emplace(m->name, m->id);
    } else {
      by_owner[owner].emplace(m->name, m->id);
    }
  }
  const auto resolve = [&](const FunctionDef& fn,
                           const std::string& name) -> std::string {
    if (!fn.qualifier.empty()) {
      const auto oit = by_owner.find(fn.qualifier);
      if (oit != by_owner.end()) {
        const auto it = oit->second.find(name);
        if (it != oit->second.end()) return it->second;
      }
    }
    const auto fit = by_file.find(fn.path);
    if (fit != by_file.end()) {
      const auto it = fit->second.find(name);
      if (it != fit->second.end()) return it->second;
    }
    return {};
  };

  struct Acq {
    std::string id;
    std::size_t offset;
    int line;
  };
  std::map<const FunctionDef*, std::vector<Acq>> direct;
  std::vector<const FunctionDef*> fns;
  for (const FileModel& file : model.files) {
    for (const FunctionDef& fn : file.functions) {
      std::vector<Acq> acqs;
      for (const LockUse& use : fn.locks) {
        std::string id = resolve(fn, use.mutex_name);
        if (!id.empty()) acqs.push_back({std::move(id), use.offset, use.line});
      }
      if (!acqs.empty() || !fn.calls.empty()) {
        direct.emplace(&fn, std::move(acqs));
        fns.push_back(&fn);
      }
    }
  }

  // Transitive lock sets: which mutexes can a call into `fn` acquire?
  // Callees resolve by unqualified name (over-approximation: all
  // overloads), iterated to fixpoint.
  std::map<const FunctionDef*, std::set<std::string>> holds;
  for (const auto& [fn, acqs] : direct) {
    for (const Acq& a : acqs) holds[fn].insert(a.id);
  }
  bool changed = true;
  while (changed) {
    changed = false;
    for (const FunctionDef* fn : fns) {
      for (const CallSite& call : fn->calls) {
        const auto cit = model.functions_by_name.find(call.callee);
        if (cit == model.functions_by_name.end()) continue;
        for (const FunctionDef* callee : cit->second) {
          const auto hit = holds.find(callee);
          if (hit == holds.end()) continue;
          for (const std::string& id : hit->second) {
            if (holds[fn].insert(id).second) changed = true;
          }
        }
      }
    }
  }

  // Edges: holding A, acquire B — either a later direct acquisition in
  // the same body, or a later call whose transitive set contains B.
  struct Edge {
    const FunctionDef* fn;
    int line;
  };
  std::map<std::string, std::map<std::string, Edge>> graph;
  const auto add_edge = [&](const std::string& from, const std::string& to,
                            const FunctionDef* fn, int line) {
    if (from == to) return;  // re-entrancy is not modeled (see DESIGN §15)
    graph[from].emplace(to, Edge{fn, line});
  };
  for (const auto& [fn, acqs] : direct) {
    for (std::size_t i = 0; i < acqs.size(); ++i) {
      for (std::size_t j = i + 1; j < acqs.size(); ++j) {
        add_edge(acqs[i].id, acqs[j].id, fn, acqs[j].line);
      }
      for (const CallSite& call : fn->calls) {
        if (call.offset <= acqs[i].offset) continue;
        const auto cit = model.functions_by_name.find(call.callee);
        if (cit == model.functions_by_name.end()) continue;
        for (const FunctionDef* callee : cit->second) {
          const auto hit = holds.find(callee);
          if (hit == holds.end()) continue;
          for (const std::string& id : hit->second) {
            add_edge(acqs[i].id, id, fn, call.line);
          }
        }
      }
    }
  }

  // Cycle detection: DFS with colors over the sorted node set; each
  // distinct cycle (by node set) is reported once, attributed to its
  // closing edge.
  std::set<std::string> reported;
  std::map<std::string, int> color;  // 0 white, 1 grey, 2 black
  std::vector<std::string> stack;
  const std::function<void(const std::string&)> dfs =
      [&](const std::string& node) {
        color[node] = 1;
        stack.push_back(node);
        const auto git = graph.find(node);
        if (git != graph.end()) {
          for (const auto& [next, edge] : git->second) {
            if (color[next] == 1) {
              // Back edge: the cycle is stack[first(next)..end] + next.
              const auto begin =
                  std::find(stack.begin(), stack.end(), next);
              std::vector<std::string> cycle(begin, stack.end());
              std::vector<std::string> key_nodes = cycle;
              std::sort(key_nodes.begin(), key_nodes.end());
              std::string key;
              for (const std::string& n : key_nodes) key += n + "|";
              if (reported.insert(key).second) {
                std::ostringstream msg;
                msg << "lock-order cycle: ";
                for (const std::string& n : cycle) msg << n << " -> ";
                msg << next;
                msg << " (closing edge " << node << " -> " << next
                    << " in " << edge.fn->name << " at " << at(*edge.fn)
                    << "); two threads taking these locks in opposite "
                       "orders deadlock";
                add(out, "lock.order", edge.fn->path, edge.line,
                    Severity::kError, msg.str(), "",
                    "pick one global acquisition order for these mutexes "
                    "(document it in their `guards:` comments) or "
                    "collapse the critical sections so only one lock is "
                    "ever held at a time");
              }
            } else if (color[next] == 0) {
              dfs(next);
            }
          }
        }
        stack.pop_back();
        color[node] = 2;
      };
  for (const auto& [node, unused] : graph) {
    (void)unused;
    if (color[node] == 0) dfs(node);
  }
}

// --------------------------------------------------------- hotpath.alloc

enum class Backing { kArena, kHeap, kUnknown };

/// Backing implied by one declaration's text, kUnknown when the text
/// names neither an arena type nor a heap container.
Backing backing_of_decl(const std::string& decl, std::size_t before) {
  std::size_t type_off = 0;
  if ((has_ident(decl, "ArenaVector", &type_off) ||
       has_ident(decl, "ArenaString", &type_off) ||
       has_ident(decl, "ArenaAllocator", &type_off) ||
       has_ident(decl, "Arena", &type_off)) &&
      type_off < before) {
    return Backing::kArena;
  }
  for (std::string_view heap_type :
       {"std::vector", "std::string", "std::deque", "std::map",
        "std::set"}) {
    // Boundary-aware: "std::string_view" must not match "std::string".
    std::size_t t = 0;
    if (has_ident(decl, heap_type, &t) && t < before) return Backing::kHeap;
  }
  return Backing::kUnknown;
}

/// Where does `receiver`'s storage come from? Resolution order:
///   1. declarations inside the function body,
///   2. fields of the function's own enclosing type (qualifier),
///   3. fields named `receiver` anywhere in the model — but only when
///      every such field agrees (names like `domains` recur across
///      unrelated structs with different backings; a disagreement means
///      we do not know which one this function touches, and kUnknown
///      never flags).
Backing resolve_receiver(const Model& model, const FunctionDef& fn,
                         const std::string& receiver) {
  std::istringstream body(fn.body);
  std::string line;
  while (std::getline(body, line)) {
    std::size_t recv_off = 0;
    if (!has_ident(line, receiver, &recv_off)) continue;
    const Backing b = backing_of_decl(line, recv_off);
    if (b != Backing::kUnknown) return b;
  }
  if (!fn.qualifier.empty()) {
    const auto it = model.structs.find(fn.qualifier);
    if (it != model.structs.end()) {
      for (const FieldDecl& field : it->second->fields) {
        if (field.name != receiver) continue;
        const Backing b = backing_of_decl(field.decl, field.decl.size());
        if (b != Backing::kUnknown) return b;
      }
    }
  }
  Backing agreed = Backing::kUnknown;
  for (const FileModel& file : model.files) {
    for (const StructModel& s : file.structs) {
      for (const FieldDecl& field : s.fields) {
        if (field.name != receiver) continue;
        const Backing b = backing_of_decl(field.decl, field.decl.size());
        if (b == Backing::kUnknown) continue;
        if (agreed == Backing::kUnknown) {
          agreed = b;
        } else if (agreed != b) {
          return Backing::kUnknown;
        }
      }
    }
  }
  return agreed;
}

void rule_hotpath_alloc(const Model& model, std::vector<Finding>& out) {
  constexpr std::string_view kHint =
      "allocate through the per-site arena (util::Arena / ArenaVector / "
      "the domain interner) or hoist the allocation out of the hot "
      "function; `h2r-lint: allow(hotpath.alloc) -- <why>` if it is "
      "genuinely cold";
  for (const FileModel& file : model.files) {
    for (const FunctionDef& fn : file.functions) {
      if (!fn.hotpath) continue;
      if (fn.hotpath_missing_reason) {
        add(out, "allow.reason", fn.path, fn.hotpath_line, Severity::kError,
            "hotpath annotation without a reason; write \"h2r-lint: "
            "hotpath -- why this function is per-site hot\"",
            "", "");
      }
      std::istringstream body(fn.body);
      std::string line;
      int line_no = fn.body_begin_line - 1;
      while (std::getline(body, line)) {
        ++line_no;
        if (has_ident(line, "new") && !has_ident(line, "delete")) {
          add(out, "hotpath.alloc", fn.path, line_no, Severity::kWarning,
              "operator new inside hot-path function '" + fn.name +
                  "' — PR 7's arena pass exists to keep this loop "
                  "allocation-free",
              line, std::string(kHint));
          continue;
        }
        // has_ident, not has_call: the explicit template argument list
        // (make_unique<T>(...)) separates the name from its '('.
        if (has_ident(line, "make_unique") || has_ident(line, "make_shared")) {
          add(out, "hotpath.alloc", fn.path, line_no, Severity::kWarning,
              "heap-owning smart-pointer construction inside hot-path "
              "function '" +
                  fn.name + "'",
              line, std::string(kHint));
          continue;
        }
        // A by-value std::string / std::vector local: construction (and
        // growth) allocates. References and pointers bind, they do not.
        for (std::string_view owner : {"std::string", "std::vector"}) {
          std::size_t pos = 0;
          if (!has_ident(line, owner, &pos)) continue;
          std::size_t i = pos + owner.size();
          if (i < line.size() && line[i] == '<') {
            int depth = 0;
            for (; i < line.size(); ++i) {
              if (line[i] == '<') ++depth;
              if (line[i] == '>' && --depth == 0) {
                ++i;
                break;
              }
            }
          }
          while (i < line.size() &&
                 std::isspace(static_cast<unsigned char>(line[i]))) {
            ++i;
          }
          if (i < line.size() && ident_char(line[i])) {
            add(out, "hotpath.alloc", fn.path, line_no, Severity::kWarning,
                "by-value " + std::string(owner) +
                    " declared inside hot-path function '" + fn.name +
                    "' — its buffer is a per-site heap allocation",
                line, std::string(kHint));
            break;
          }
        }
        // Growth on a known heap-backed container.
        for (std::string_view grower : {"push_back", "emplace_back"}) {
          std::size_t pos = 0;
          std::size_t search = 0;
          bool flagged = false;
          while (!flagged &&
                 (pos = line.find(grower, search)) != std::string::npos) {
            search = pos + grower.size();
            if (pos == 0 || (line[pos - 1] != '.' &&
                             !(pos >= 2 && line[pos - 2] == '-' &&
                               line[pos - 1] == '>'))) {
              continue;
            }
            std::size_t recv_end = pos - 1;
            if (line[recv_end] == '>') recv_end -= 1;  // '->'
            std::size_t recv_begin = recv_end;
            while (recv_begin > 0 && ident_char(line[recv_begin - 1])) {
              --recv_begin;
            }
            if (recv_begin == recv_end) continue;
            const std::string receiver(
                line.substr(recv_begin, recv_end - recv_begin));
            if (resolve_receiver(model, fn, receiver) == Backing::kHeap) {
              add(out, "hotpath.alloc", fn.path, line_no,
                  Severity::kWarning,
                  "'" + receiver + "." + std::string(grower) +
                      "' grows a heap-backed container inside hot-path "
                      "function '" +
                      fn.name + "'",
                  line, std::string(kHint));
              flagged = true;
            }
          }
          if (flagged) break;
        }
      }
    }
  }
}

}  // namespace

std::vector<Finding> contract_findings(const Model& model,
                                       const Options& options) {
  (void)options;
  std::vector<Finding> out;
  rule_lock_order(model, out);
  rule_hotpath_alloc(model, out);
  return out;
}

}  // namespace h2r::lint

// h2r-lint's cross-TU semantic model (AST-lite, no libclang).
//
// The per-TU token rules can ban an API wherever it appears, but lock
// ordering is a RELATION between translation units: a mutex is declared
// in one header, taken in one .cpp and taken again, transitively, by a
// function in another. This model is the minimum structure needed to
// check that relation and the hot-path allocation rule mechanically:
//
//   * struct definitions with their field lists (hotpath.alloc resolves
//     a push_back receiver's backing through them),
//   * every free or member function definition with its (blanked) body
//     and qualifier,
//   * mutex declarations (identity = EnclosingType::name, or file::name
//     for locals) and, per function, the lock acquisitions and call
//     sites in body order — the raw material of the lock-order graph,
//   * `// h2r-lint: hotpath -- reason` function annotations for the
//     allocation rule.
//
// Deliberate non-goals (DESIGN §15): templates are not instantiated
// (templated structs are skipped), macros are not expanded, and `class`
// fields are not modeled.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "lexer.hpp"

namespace h2r::lint {

struct FieldDecl {
  std::string name;
  std::string decl;  // trimmed declaration text
};

/// A lock acquisition or a call site inside one function body, in body
/// order (offsets are into FunctionDef::body).
struct LockUse {
  std::string mutex_name;  // spelled name at the acquisition site
  std::size_t offset = 0;
  int line = 0;
};

struct CallSite {
  std::string callee;  // unqualified name
  std::size_t offset = 0;
  int line = 0;
};

struct FunctionDef {
  std::string name;        // unqualified ("merge", "operator==", ...)
  std::string qualifier;   // "Class" for out-of-line Class::name, or the
                           // enclosing type for in-class definitions
  std::string path;
  int header_line = 0;     // line the header's `(` is on
  int body_begin_line = 0;
  std::string body;        // blanked code of the body (braces excluded)
  bool hotpath = false;            // `// h2r-lint: hotpath -- reason`
  bool hotpath_missing_reason = false;
  int hotpath_line = 0;
  std::vector<LockUse> locks;
  std::vector<CallSite> calls;
};

struct StructModel {
  std::string name;  // unqualified
  bool templated = false;
  std::vector<FieldDecl> fields;
};

struct MutexDecl {
  std::string id;    // "Type::name" or "path::name"
  std::string name;
  std::string path;
  int line = 0;
};

struct FileModel {
  std::string path;
  std::vector<StructModel> structs;
  std::vector<FunctionDef> functions;
  std::vector<MutexDecl> mutexes;
};

/// Parses one lexed file into its model. `path` is repo-relative.
FileModel parse_file(std::string_view path, const std::vector<Line>& lines);

/// The repo-wide model: per-file models plus cross-file indexes.
struct Model {
  std::vector<FileModel> files;

  /// Structs by unqualified name. Name collisions across namespaces merge
  /// into the first definition seen (acceptable over-approximation for a
  /// linter; an allow annotation can always silence a false positive).
  std::map<std::string, const StructModel*> structs;
  /// All function definitions sharing an unqualified name.
  std::map<std::string, std::vector<const FunctionDef*>> functions_by_name;
  std::vector<const MutexDecl*> mutexes;
};

Model build_model(const std::vector<FileModel>& files);

}  // namespace h2r::lint

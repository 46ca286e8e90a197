// The cross-TU rules built on the semantic model (model.hpp):
//
//   lock.order     the lock-acquisition graph across all modeled mutexes
//                  is acyclic
//   hotpath.alloc  no heap allocation inside functions annotated
//                  `// h2r-lint: hotpath -- reason`
//
// Field coverage of merge, operator== and the JSON codecs is not a lint
// rule: the field tables (src/util/fields.hpp) make the compiler check it.
#pragma once

#include <vector>

#include "lint.hpp"
#include "model.hpp"

namespace h2r::lint {

/// Runs every cross-TU rule over the model. Findings are unfiltered and
/// unsorted; the caller applies inline allows, strict promotion and the
/// global sort.
std::vector<Finding> contract_findings(const Model& model,
                                       const Options& options);

}  // namespace h2r::lint

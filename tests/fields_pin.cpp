// Compile-time fixture for the field-table pin (src/util/fields.hpp).
// Tally has three members but its table binds two, so this file must
// fail to compile with the structured-binding diagnostic. With
// FIELDS_PIN_CONTROL the extra member is gone and it must compile.
// tests/CMakeLists.txt runs both (fields_pin_*).
#include <cstdint>
#include <tuple>

#include "util/fields.hpp"

struct Tally {
  std::uint64_t sites = 0;
  std::uint64_t connections = 0;
#ifndef FIELDS_PIN_CONTROL
  std::uint64_t forgotten = 0;  // added without a row
#endif
};

auto fields(h2r::util::RecordOf<Tally> auto& t) {
  auto& [sites, connections] = t;
  return std::tuple(h2r::util::row("sites", sites),
                    h2r::util::row("connections", connections));
}

int main() {
  Tally a;
  const Tally b;
  h2r::util::merge_fields(a, b);
  return h2r::util::fields_equal(a, b) ? 0 : 1;
}

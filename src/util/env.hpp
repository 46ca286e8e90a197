// The H2R_* knob table and the one rule that reads it.
//
// Every environment variable the project reads has one row in kKnobs: its
// name, kind and accepted range. env() reads a row: unset or empty yields
// the caller's default; any other value must parse in full — decimal
// digits only for counts (no sign, space or base prefix), a number for
// rates, a listed word for choices — within the row's range, or env()
// throws ConfigError naming the variable and the value. A switch is on for
// any value but "" and "0". A flag that sets a knob parses through the
// knob's row (parse_flag), so `--hist-budget 0` means H2R_HIST_BUDGET=0.
//
// Callers name a row with a string literal looked up at compile time: a
// name with no row, a row read as the wrong type, or a count whose range
// is wider than the field it feeds does not compile. tests/env_test.cpp
// pins the rule and holds README's knob table to kKnobs.
#pragma once

#include <cstdint>
#include <iterator>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>

namespace h2r::util {

/// A malformed, out-of-range or unknown setting; what() names the
/// variable or flag and the value.
class ConfigError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

enum class KnobKind : std::uint8_t {
  kCount,   // decimal integer in [min, max]
  kMillis,  // simulated milliseconds, read as a count
  kRate,    // probability in [0, 1]
  kSwitch,  // on for any value but "" and "0"
  kText,    // any string (paths)
  kChoice,  // one of `choices`, '|'-separated
};

struct Knob {
  std::string_view name;
  KnobKind kind = KnobKind::kText;
  std::uint64_t min = 0;  // counts: max is the width of the field fed
  std::uint64_t max = 0;
  std::string_view choices = {};
};

template <typename T>
inline constexpr std::uint64_t kMaxOf = std::numeric_limits<T>::max();
inline constexpr std::uint64_t kSizeMax = kMaxOf<std::size_t>;
inline constexpr std::uint64_t kU64Max = kMaxOf<std::uint64_t>;
inline constexpr std::uint64_t kU32Max = kMaxOf<std::uint32_t>;
inline constexpr std::uint64_t kIntMax = kMaxOf<int>;
inline constexpr std::uint64_t kMillisMax = kMaxOf<std::int64_t>;  // SimTime

/// Every H2R_* variable, in README's order.
inline constexpr Knob kKnobs[] = {
    {"H2R_HAR_SITES", KnobKind::kCount, 1, kSizeMax},
    {"H2R_ALEXA_SITES", KnobKind::kCount, 1, kSizeMax},
    {"H2R_HAR_FIRST_RANK", KnobKind::kCount, 1, kSizeMax},
    {"H2R_SEED", KnobKind::kCount, 1, kU64Max},
    {"H2R_THREADS", KnobKind::kCount, 1, kU32Max},
    {"H2R_CSV_DIR", KnobKind::kText},
    {"H2R_FAULT_RATE", KnobKind::kRate},
    {"H2R_FAULT_SEED", KnobKind::kCount, 0, kU64Max},
    {"H2R_FAULT_RETRIES", KnobKind::kCount, 0, kIntMax},
    {"H2R_FAULT_BACKOFF_MS", KnobKind::kMillis, 0, kMillisMax},
    {"H2R_POOL_WORKERS", KnobKind::kCount, 1, kSizeMax},
    {"H2R_POOL_VISITS", KnobKind::kCount, 1, kSizeMax},
    {"H2R_POOL_SITE_INTERVAL_MS", KnobKind::kMillis, 0, kMillisMax},
    {"H2R_POOL_VISIT_SPACING_MS", KnobKind::kMillis, 0, kMillisMax},
    {"H2R_POOL_IDLE_MS", KnobKind::kMillis, 0, kMillisMax},
    {"H2R_POOL_KEY_CAP", KnobKind::kCount, 1, kSizeMax},
    {"H2R_POOL_MAX_STREAMS", KnobKind::kCount, 1, kU32Max},
    {"H2R_POOL_BREAKER_THRESHOLD", KnobKind::kCount, 0, kIntMax},
    {"H2R_POOL_BREAKER_COOLDOWN_MS", KnobKind::kMillis, 0, kMillisMax},
    {"H2R_JOURNAL", KnobKind::kText},
    {"H2R_RESUME", KnobKind::kSwitch},
    {"H2R_SITE_DEADLINE_MS", KnobKind::kMillis, 0, kMillisMax},
    {"H2R_METRICS", KnobKind::kText},
    {"H2R_HIST_BUDGET", KnobKind::kCount, 0, kU32Max},
    {"H2R_RSS_BUDGET_MB", KnobKind::kCount, 0, kU64Max},
    {"H2R_SCALE_SITES", KnobKind::kCount, 1, kSizeMax},
    {"H2R_POLICY_DURATION", KnobKind::kChoice, 0, 0, "exact|endless|immediate"},
    {"H2R_POLICY_ORIGIN_FRAME", KnobKind::kSwitch},
    {"H2R_POLICY_SYNC_DNS", KnobKind::kSwitch},
    {"H2R_POLICY_CERT_CONSOLIDATION", KnobKind::kSwitch},
    {"H2R_POLICY_IGNORE_CREDENTIALS", KnobKind::kSwitch},
};

/// The index of the row named `name`; std::size(kKnobs) when none is.
constexpr std::size_t knob_index(std::string_view name) {
  std::size_t index = 0;
  while (index < std::size(kKnobs) && kKnobs[index].name != name) ++index;
  return index;
}

/// A row read as a T: bool for switches, double for rates, std::string
/// for text and choices, and an integer field for counts. The constructor
/// runs at compile time, where reaching a throw is a compile error.
template <typename T>
struct KnobRef {
  consteval KnobRef(const char* name) : index(knob_index(name)) {
    if (index == std::size(kKnobs)) throw "an H2R_* name with no row";
    const KnobKind kind = kKnobs[index].kind;
    if constexpr (std::is_same_v<T, bool>) {
      if (kind != KnobKind::kSwitch) throw "a non-switch read as bool";
    } else if constexpr (std::is_same_v<T, double>) {
      if (kind != KnobKind::kRate) throw "a non-rate read as double";
    } else if constexpr (std::is_same_v<T, std::string>) {
      if (kind != KnobKind::kText && kind != KnobKind::kChoice) {
        throw "a non-text knob read as a string";
      }
    } else {
      static_assert(std::is_integral_v<T>, "counts feed integer fields");
      if (kind != KnobKind::kCount && kind != KnobKind::kMillis) {
        throw "a non-count read as an integer";
      }
      if (kKnobs[index].max > kMaxOf<T>) {
        throw "a count whose range is wider than the field it feeds";
      }
    }
  }
  const Knob& row() const { return kKnobs[index]; }
  std::size_t index;
};

/// `text` as a count in [min, max]; throws ConfigError naming `name` and
/// `text` otherwise. Counts that are not knobs (a site count) use it too.
std::uint64_t parse_count(std::string_view name, std::string_view text,
                          std::uint64_t min = 1, std::uint64_t max = kU64Max);

/// `text` as a rate in [0, 1]; throws ConfigError naming `name` and
/// `text` otherwise.
double parse_rate(std::string_view name, std::string_view text);

/// `text` under `row`'s rule: a listed word for choices, anything for
/// text; throws ConfigError naming `name` and `text` otherwise.
std::string parse_text(const Knob& row, std::string_view name,
                       std::string_view text);

/// `text` under `knob`'s row, errors naming `name` (the variable, or the
/// flag that sets it).
template <typename T>
T parse_flag(KnobRef<T> knob, std::string_view name, std::string_view text) {
  if constexpr (std::is_same_v<T, bool>) {
    return !text.empty() && text != "0";
  } else if constexpr (std::is_same_v<T, double>) {
    return parse_rate(name, text);
  } else if constexpr (std::is_same_v<T, std::string>) {
    return parse_text(knob.row(), name, text);
  } else {
    return static_cast<T>(
        parse_count(name, text, knob.row().min, knob.row().max));
  }
}

/// The variable's value; nullopt when it is unset or empty.
std::optional<std::string_view> env_value(std::string_view name);

/// The knob's value, or `fallback` when the variable is unset or empty.
template <typename T>
T env(std::type_identity_t<KnobRef<T>> knob, T fallback) {
  const auto text = env_value(knob.row().name);
  return text ? parse_flag<T>(knob, knob.row().name, *text) : fallback;
}

/// H2R_THREADS, clamped to the machine's hardware concurrency so that a
/// large request cannot start more workers than there are cores.
unsigned env_threads(unsigned fallback);

/// Throws ConfigError naming the first H2R_* variable in the environment
/// that has no row in kKnobs.
void reject_unknown_env();

}  // namespace h2r::util

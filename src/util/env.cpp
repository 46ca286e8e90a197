#include "util/env.hpp"

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cstdlib>
#include <system_error>
#include <thread>
#include <vector>

#include "util/strings.hpp"

namespace h2r::util {

namespace {

[[noreturn]] void reject(std::string_view name, std::string_view wants,
                         std::string_view text) {
  throw ConfigError(std::string(name) + " wants " + std::string(wants) +
                    ", got '" + std::string(text) + "'");
}

}  // namespace

std::uint64_t parse_count(std::string_view name, std::string_view text,
                          std::uint64_t min, std::uint64_t max) {
  // from_chars skips no whitespace and accepts no sign for unsigned
  // types, so "-4", " 7" and "+2" all fail; overflow is an error too.
  std::uint64_t value = 0;
  const char* end = text.data() + text.size();
  const auto result = std::from_chars(text.data(), end, value);
  if (text.empty() || result.ec != std::errc{} || result.ptr != end ||
      value < min || value > max) {
    reject(name,
           max == kU64Max ? "an integer >= " + std::to_string(min)
                          : "an integer in [" + std::to_string(min) + ", " +
                                std::to_string(max) + "]",
           text);
  }
  return value;
}

double parse_rate(std::string_view name, std::string_view text) {
  const std::string terminated(text);
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(terminated.c_str(), &end);
  // The negated comparison also rejects NaN.
  if (terminated.empty() || *end != '\0' || errno == ERANGE ||
      !(value >= 0.0 && value <= 1.0)) {
    reject(name, "a number in [0, 1]", text);
  }
  return value;
}

std::string parse_text(const Knob& row, std::string_view name,
                       std::string_view text) {
  const std::vector<std::string_view> choices = split(row.choices, '|');
  if (row.kind == KnobKind::kChoice &&
      std::find(choices.begin(), choices.end(), text) == choices.end()) {
    reject(name, row.choices, text);
  }
  return std::string(text);
}

std::optional<std::string_view> env_value(std::string_view name) {
  const char* value = std::getenv(std::string(name).c_str());
  if (value == nullptr || *value == '\0') return std::nullopt;
  return std::string_view(value);
}

unsigned env_threads(unsigned fallback) {
  const unsigned hardware = std::max(1u, std::thread::hardware_concurrency());
  return std::min(env("H2R_THREADS", fallback), hardware);
}

void reject_unknown_env() {
  for (char** entry = environ; *entry != nullptr; ++entry) {
    const std::string_view variable = *entry;
    const std::size_t equals = std::min(variable.find('='), variable.size());
    const std::string_view name = variable.substr(0, equals);
    if (name.rfind("H2R_", 0) == 0 && knob_index(name) == std::size(kKnobs)) {
      const std::string_view value =
          variable.substr(std::min(equals + 1, variable.size()));
      throw ConfigError(std::string(name) + "='" + std::string(value) +
                        "' is not a known variable; README's knob table "
                        "lists them all");
    }
  }
}

}  // namespace h2r::util

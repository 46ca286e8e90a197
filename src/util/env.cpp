#include "util/env.hpp"

#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <system_error>

namespace h2r::util {

std::optional<std::uint64_t> parse_u64(std::string_view text) {
  // from_chars skips no whitespace and accepts no sign for unsigned
  // types, so "-4", " 7" and "+2" all fail; overflow is an error too.
  std::uint64_t value = 0;
  const char* end = text.data() + text.size();
  const auto result = std::from_chars(text.data(), end, value);
  if (text.empty() || result.ec != std::errc{} || result.ptr != end) {
    return std::nullopt;
  }
  return value;
}

std::uint64_t env_u64(const char* name, std::uint64_t fallback,
                      std::uint64_t minimum) {
  const char* value = std::getenv(name);
  if (value == nullptr) return fallback;
  const auto parsed = parse_u64(value);
  return parsed && *parsed >= minimum ? *parsed : fallback;
}

double env_double(const char* name, double fallback, double min, double max) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  errno = 0;
  char* end = nullptr;
  const double parsed = std::strtod(value, &end);
  if (end == value || *end != '\0' || errno == ERANGE) return fallback;
  // The negated comparison also rejects NaN.
  if (!(parsed >= min && parsed <= max)) return fallback;
  return parsed;
}

bool env_flag(const char* name) {
  const char* value = std::getenv(name);
  return value != nullptr && *value != '\0' &&
         std::string_view(value) != "0";
}

std::string env_string(const char* name, std::string fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  return value;
}

}  // namespace h2r::util

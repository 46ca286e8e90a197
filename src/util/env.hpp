// Typed environment-variable parsing with fallback-on-invalid semantics.
//
// Before this header, every layer that read an H2R_* knob re-implemented
// parsing with subtly different invalid-value handling: the study config
// used atoll (accepting "12abc" as 12), the fault config used strtod with
// its own range checks, and the benches called getenv directly. These
// helpers are the one place those semantics live:
//
//   * unset or empty variables always yield the fallback;
//   * the whole string must parse — trailing junk ("12abc"), signs on
//     unsigned values and out-of-range literals yield the fallback;
//   * values below a caller-supplied minimum (or outside [min, max] for
//     doubles) yield the fallback, never a clamp — a bad knob should be
//     ignored loudly-documented, not silently adjusted.
//
// tests/env_test.cpp pins every one of these rules.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace h2r::util {

/// The whole-string rule env_u64 applies, for any text (CLI flags too):
/// decimal digits only — no sign, space or base prefix — within uint64
/// range; nullopt otherwise.
std::optional<std::uint64_t> parse_u64(std::string_view text);

/// Unsigned integer knob. Returns `fallback` when `name` is unset, empty,
/// not a whole-string decimal number, out of uint64 range, or below
/// `minimum` (e.g. minimum = 1 for "must be positive" knobs).
std::uint64_t env_u64(const char* name, std::uint64_t fallback,
                      std::uint64_t minimum = 0);

/// Floating-point knob bounded to [min, max] (defaults fit probabilities).
/// Returns `fallback` when unset, empty, not a whole-string number, NaN,
/// or outside the bounds.
double env_double(const char* name, double fallback, double min = 0.0,
                  double max = 1.0);

/// Boolean knob: false when unset, empty or exactly "0"; true otherwise
/// (matching the long-standing H2R_RESUME convention).
bool env_flag(const char* name);

/// String knob: the variable's value, or `fallback` when unset or empty.
std::string env_string(const char* name, std::string fallback = {});

}  // namespace h2r::util

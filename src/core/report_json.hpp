// JSON serialization of analysis results — the machine-readable side of
// the toolkit (the `h2r` CLI's --json mode, CI pipelines diffing audits).
#pragma once

#include "core/advisor.hpp"
#include "core/classify.hpp"
#include "core/report.hpp"
#include "fault/fault.hpp"
#include "json/fields.hpp"
#include "json/json.hpp"

namespace h2r::core {

/// The lossless journal shape, generated from AggregateReport's field
/// table (json/fields.hpp): every attribution row with its complete
/// previous-origin map, full domain sets and the raw TimeHistogram
/// sample multisets. report_from_json(x) round-trips it exactly
/// (tests/report_json_test.cpp pins it).
json::Value to_json_full(const AggregateReport& report);

/// Strict parser for to_json_full output. Rejects malformed documents:
/// missing/mistyped fields, non-integer or negative counters (doubles and
/// NaN included), unknown cause names; the error names the key path.
util::Expected<AggregateReport> report_from_json(const json::Value& value);

/// TimeHistogram (sample multiset) <-> JSON: array of [value_ms, count]
/// pairs, ordered by value. The parser rejects non-integer values,
/// non-positive counts and unsorted/duplicate entries.
json::Value histogram_to_json(const stats::TimeHistogram& histogram);
util::Expected<stats::TimeHistogram> histogram_from_json(
    const json::Value& value);

/// Strict parser for to_json(FailureSummary) output (the fault ledger).
util::Expected<fault::FailureSummary> failure_summary_from_json(
    const json::Value& value);

/// One site's classification -> JSON (per-connection findings with causes
/// and reusable previous origins).
json::Value to_json(const SiteClassification& classification);

/// Audit report -> JSON (advice items with cause/remedy/volume).
json::Value to_json(const AuditReport& report);

/// Fault-layer ledger -> JSON: per-kind injected counts plus the fetch /
/// retry / degradation counters. Serialized alongside the crawl summary
/// so chaos runs diff cleanly in CI.
json::Value to_json(const fault::FailureSummary& summary);

}  // namespace h2r::core

namespace h2r::json {

/// Cause keys by name ("CERT", "IP", "CRED").
template <>
struct Codec<core::Cause> {
  static Value encode(core::Cause cause);
  static util::Expected<core::Cause> decode(const Value& value);
};

template <>
struct Codec<stats::TimeHistogram> {
  static Value encode(const stats::TimeHistogram& histogram) {
    return core::histogram_to_json(histogram);
  }
  static util::Expected<stats::TimeHistogram> decode(const Value& value) {
    return core::histogram_from_json(value);
  }
};

}  // namespace h2r::json

#include "core/report_json.hpp"

namespace h2r::core {

json::Value histogram_to_json(const stats::TimeHistogram& histogram) {
  json::Array samples;
  for (const auto& [value, count] : histogram) {
    json::Array pair;
    pair.emplace_back(static_cast<std::int64_t>(value));
    pair.emplace_back(static_cast<std::int64_t>(count));
    samples.emplace_back(std::move(pair));
  }
  if (histogram.bin_budget() == 0) {
    // Exact histograms keep the legacy array shape, byte-for-byte.
    return json::Value{std::move(samples)};
  }
  // Budgeted sketches carry their quantization level explicitly: it
  // cannot be re-derived from sparse bins, and resuming with a wrong
  // level would break merge determinism.
  json::Object obj;
  obj.set("budget", static_cast<std::int64_t>(histogram.bin_budget()));
  obj.set("level", static_cast<std::int64_t>(histogram.level()));
  obj.set("bins", std::move(samples));
  return json::Value{std::move(obj)};
}

namespace {

util::Expected<stats::TimeHistogram::Map> histogram_bins_from_json(
    const json::Value& value) {
  if (!value.is_array()) {
    return util::unexpected(util::Error{"histogram is not an array"});
  }
  stats::TimeHistogram::Map bins;
  bool first = true;
  util::SimTime last = 0;
  for (const json::Value& pair : value.as_array()) {
    if (!pair.is_array() || pair.as_array().size() != 2 ||
        !pair.at(0).is_int() || !pair.at(1).is_int()) {
      return util::unexpected(
          util::Error{"histogram entry is not an integer pair"});
    }
    const util::SimTime sample = pair.at(0).as_int();
    const std::int64_t count = pair.at(1).as_int();
    if (count <= 0) {
      return util::unexpected(util::Error{"non-positive histogram count"});
    }
    if (!first && sample <= last) {
      return util::unexpected(
          util::Error{"histogram samples not strictly increasing"});
    }
    bins[sample] = static_cast<std::uint64_t>(count);
    last = sample;
    first = false;
  }
  return bins;
}

}  // namespace

util::Expected<stats::TimeHistogram> histogram_from_json(
    const json::Value& value) {
  if (value.is_object()) {
    const json::Value& budget = value["budget"];
    const json::Value& level = value["level"];
    if (!budget.is_int() || budget.as_int() <= 0 ||
        budget.as_int() > 0xFFFFFFFFll || !level.is_int() ||
        level.as_int() < 0 || level.as_int() > 0xFFFFFFFFll) {
      return util::unexpected(
          util::Error{"budgeted histogram without valid budget/level"});
    }
    auto bins = histogram_bins_from_json(value["bins"]);
    if (!bins) return util::unexpected(bins.error());
    auto restored = stats::TimeHistogram::restore(
        static_cast<std::uint32_t>(budget.as_int()),
        static_cast<std::uint32_t>(level.as_int()), std::move(*bins));
    if (!restored) {
      return util::unexpected(util::Error{"inconsistent budgeted histogram"});
    }
    return *restored;
  }
  auto bins = histogram_bins_from_json(value);
  if (!bins) return util::unexpected(bins.error());
  stats::TimeHistogram histogram;
  for (const auto& [sample, count] : *bins) histogram.add(sample, count);
  return histogram;
}

util::Expected<fault::FailureSummary> failure_summary_from_json(
    const json::Value& value) {
  return json::decode<fault::FailureSummary>(value, "FailureSummary");
}

json::Value to_json_full(const AggregateReport& report) {
  return json::encode(report);
}

util::Expected<AggregateReport> report_from_json(const json::Value& value) {
  return json::decode<AggregateReport>(value, "AggregateReport");
}

json::Value to_json(const SiteClassification& classification) {
  json::Object root;
  root.set("site", classification.site_url);
  root.set("total_connections",
           static_cast<std::int64_t>(classification.total_connections));
  root.set("redundant_connections",
           static_cast<std::int64_t>(classification.redundant_connections()));
  json::Array findings;
  for (const ConnectionFinding& finding : classification.findings) {
    json::Object item;
    item.set("connection_index",
             static_cast<std::int64_t>(finding.connection_index));
    json::Array causes;
    for (Cause cause : finding.causes) causes.emplace_back(to_string(cause));
    item.set("causes", std::move(causes));
    json::Object prevs;
    for (const auto& [cause, domains] : finding.reusable_previous_domains) {
      json::Array list;
      for (const std::string& domain : domains) list.emplace_back(domain);
      prevs.set(to_string(cause), std::move(list));
    }
    item.set("reusable_previous", std::move(prevs));
    findings.emplace_back(std::move(item));
  }
  root.set("findings", std::move(findings));
  if (!classification.recovered.empty()) {
    root.set("recovered_connections",
             static_cast<std::int64_t>(classification.recovered.size()));
    json::Array recovered;
    for (const RecoveredConnection& rec : classification.recovered) {
      json::Object item;
      item.set("connection_index",
               static_cast<std::int64_t>(rec.connection_index));
      item.set("reused_connection_index",
               static_cast<std::int64_t>(rec.reused_connection_index));
      item.set("operator", rec.operator_name);
      recovered.emplace_back(std::move(item));
    }
    root.set("recovered", std::move(recovered));
  }
  return json::Value{std::move(root)};
}

json::Value to_json(const AuditReport& report) {
  json::Object root;
  root.set("site", report.site_url);
  root.set("total_connections",
           static_cast<std::int64_t>(report.total_connections));
  root.set("redundant_connections",
           static_cast<std::int64_t>(report.redundant_connections));
  root.set("non_ip_redundant",
           static_cast<std::int64_t>(report.non_ip_redundant));
  if (!report.remaining_redundant.empty()) {
    json::Object remaining;
    for (const auto& [kind, count] : report.remaining_redundant) {
      remaining.set(std::string(remedy_slug(kind)),
                    static_cast<std::int64_t>(count));
    }
    root.set("remaining_redundant", std::move(remaining));
  }
  json::Array advice;
  for (const Advice& item : report.advice) {
    json::Object obj;
    obj.set("cause", to_string(item.cause));
    obj.set("remedy", to_string(item.remedy));
    obj.set("domain", item.domain);
    obj.set("reusable_domain", item.reusable_domain);
    obj.set("connections", static_cast<std::int64_t>(item.connections));
    obj.set("recovered", static_cast<std::int64_t>(item.recovered));
    obj.set("message", item.message);
    advice.emplace_back(std::move(obj));
  }
  root.set("advice", std::move(advice));
  return json::Value{std::move(root)};
}

json::Value to_json(const fault::FailureSummary& summary) {
  return json::encode(summary);
}

}  // namespace h2r::core

namespace h2r::json {

Value Codec<core::Cause>::encode(core::Cause cause) {
  return Value{core::to_string(cause)};
}

util::Expected<core::Cause> Codec<core::Cause>::decode(const Value& value) {
  for (core::Cause cause : core::kAllCauses) {
    if (core::to_string(cause) == value.as_string()) return cause;
  }
  return util::unexpected(
      util::Error{"unknown cause: " + value.as_string()});
}

}  // namespace h2r::json

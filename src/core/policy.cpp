#include "core/policy.hpp"

#include "util/env.hpp"

namespace h2r::core {

std::uint8_t Policy::mask() const noexcept {
  std::uint8_t m = 0;
  if (origin_frame) m |= kKnobOriginFrame;
  if (sync_dns) m |= kKnobSyncDns;
  if (cert_consolidation) m |= kKnobCertConsolidation;
  if (ignore_credentials) m |= kKnobIgnoreCredentials;
  return m;
}

std::size_t Policy::knob_count() const noexcept {
  std::size_t count = 0;
  for (std::uint8_t m = mask(); m != 0; m &= static_cast<std::uint8_t>(m - 1)) {
    ++count;
  }
  return count;
}

std::string Policy::label() const {
  if (!counterfactual()) return "baseline";
  std::string out;
  for (const PolicyKnob knob : {kKnobOriginFrame, kKnobSyncDns,
                                kKnobCertConsolidation,
                                kKnobIgnoreCredentials}) {
    if ((mask() & knob) != 0) {
      out += '+';
      out += to_string(knob);
    }
  }
  return out;
}

Policy Policy::with_mask(std::uint8_t mask) { return with_mask(mask, Policy{}); }

Policy Policy::with_mask(std::uint8_t mask, const Policy& base) {
  Policy p = base;
  p.origin_frame = (mask & kKnobOriginFrame) != 0;
  p.sync_dns = (mask & kKnobSyncDns) != 0;
  p.cert_consolidation = (mask & kKnobCertConsolidation) != 0;
  p.ignore_credentials = (mask & kKnobIgnoreCredentials) != 0;
  return p;
}

Policy Policy::from_env() {
  Policy p;
  const std::string duration =
      util::env("H2R_POLICY_DURATION", std::string("exact"));
  if (duration == "endless") {
    p.duration = DurationModel::kEndless;
  } else if (duration == "immediate") {
    p.duration = DurationModel::kImmediate;
  } else {
    p.duration = DurationModel::kExact;
  }
  p.origin_frame = util::env("H2R_POLICY_ORIGIN_FRAME", false);
  p.sync_dns = util::env("H2R_POLICY_SYNC_DNS", false);
  p.cert_consolidation = util::env("H2R_POLICY_CERT_CONSOLIDATION", false);
  p.ignore_credentials = util::env("H2R_POLICY_IGNORE_CREDENTIALS", false);
  return p;
}

std::string_view to_string(PolicyKnob knob) {
  switch (knob) {
    case kKnobOriginFrame: return "origin_frame";
    case kKnobSyncDns: return "sync_dns";
    case kKnobCertConsolidation: return "cert_consolidation";
    case kKnobIgnoreCredentials: return "ignore_credentials";
  }
  return "?";
}

}  // namespace h2r::core

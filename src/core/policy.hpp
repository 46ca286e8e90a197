// The policy-driven classifier API (DESIGN §14).
//
// A core::Policy is one point in the counterfactual intervention space the
// optimizer sweeps: the duration model the classifier always had, plus the
// knobs the paper's discussion section proposes — ORIGIN frames deployed
// everywhere, DNS answers synchronized across coalescable hosts, operator
// certificates consolidated into one SAN set, and fetch-credential /
// privacy-mode partitioning ignored. ClassifyContext::prepare() stays
// knob-independent; classify(policy) replays the prepared site under the
// policy, recovering the connections the counterfactual browser would not
// have opened and re-classifying the survivors.
#pragma once

#include <cstdint>
#include <string>

#include "core/connection.hpp"
#include "util/clock.hpp"

namespace h2r::core {

/// Bit per counterfactual knob; Policy::mask() packs them in this order.
enum PolicyKnob : std::uint8_t {
  kKnobOriginFrame = 1u << 0,
  kKnobSyncDns = 1u << 1,
  kKnobCertConsolidation = 1u << 2,
  kKnobIgnoreCredentials = 1u << 3,
};

inline constexpr std::uint8_t kAllPolicyKnobs = 0xF;
inline constexpr std::size_t kPolicyKnobCount = 4;

struct Policy {
  /// Connection-lifetime bound (paper §4.2.1). First member, so the
  /// brace form `{DurationModel::kExact}` names a baseline policy.
  DurationModel duration = DurationModel::kExact;

  /// Classify as if measurement had stopped here: connections opened at or
  /// after the horizon are invisible, requests past it are truncated, and
  /// close times past it are unknown. Used by the internal-pages ablation
  /// to score the landing page out of a whole-visit observation.
  util::SimTime horizon = util::kSimTimeMax;

  /// Every server announces its RFC 8336 origin set, and the browser
  /// honors it: a previous connection whose server serves C's domain is
  /// reused across IPs (the paper's "every same-operator cross-IP case").
  bool origin_frame = false;

  /// DNS answers are synchronized: coalescable hosts resolve to the same
  /// address, so certificate-covered cross-IP pairs collapse.
  bool sync_dns = false;

  /// Each operator consolidates its certificates into one SAN set: a
  /// same-endpoint, same-operator pair coalesces even when the observed
  /// certificate did not cover the later domain.
  bool cert_consolidation = false;

  /// Fetch-credential / privacy-mode partitioning is ignored: connections
  /// that differ only in the privacy bit share a pool.
  bool ignore_credentials = false;

  /// True when any counterfactual knob is set (the replay phases run).
  bool counterfactual() const noexcept { return mask() != 0; }

  /// Knob bits packed per PolicyKnob (duration/horizon excluded).
  std::uint8_t mask() const noexcept;

  /// Number of enabled knobs (popcount of mask()).
  std::size_t knob_count() const noexcept;

  /// "baseline" or "+origin_frame+sync_dns+..." in PolicyKnob bit order —
  /// stable across runs, used by reports and journal checkpoints.
  std::string label() const;

  /// The policy with the given knob bits on top of `base`'s duration and
  /// horizon.
  static Policy with_mask(std::uint8_t mask, const Policy& base);
  static Policy with_mask(std::uint8_t mask);

  /// Reads H2R_POLICY_DURATION (exact|endless|immediate; anything else
  /// throws util::ConfigError) and the four H2R_POLICY_* knob switches.
  /// Unset switches stay off.
  static Policy from_env();

  /// Every field, duration and horizon included: two distinct policy
  /// points never compare equal.
  bool operator==(const Policy&) const = default;
};

/// Short name of a single knob bit ("origin_frame", ...); knob must be one
/// PolicyKnob value.
std::string_view to_string(PolicyKnob knob);

}  // namespace h2r::core

// The redundancy classifier (paper §4.1).
//
// For every connection C of a site, every *previous* connection P (opened
// earlier and still available at C's open time under the duration model) is
// examined:
//
//   P excluded C's domain (421/ORIGIN)         -> P is skipped entirely
//   same endpoint, P's cert covers C's domain  -> cause CRED
//   same endpoint, cert does not cover         -> cause CERT
//   different IP, same initial domain          -> cause CRED  (corner case:
//        only happens when the credentials flag forbade reuse and DNS
//        announced several IPs — would otherwise misclassify as IP)
//   different IP, P's cert covers C's domain   -> cause IP
//   nothing matches for any P                  -> unknown third party
//                                                 (not redundant)
//
// A connection's causes are the SET over all P (the paper's four-connection
// example yields 3x CERT + 2x CRED), so per-cause sums may exceed the
// number of redundant connections.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "core/connection.hpp"
#include "core/connection_table.hpp"
#include "core/intern.hpp"
#include "core/policy.hpp"
#include "util/arena.hpp"

namespace h2r::core {

enum class Cause : std::uint8_t { kCert, kIp, kCred };

std::string to_string(Cause cause);

inline constexpr Cause kAllCauses[] = {Cause::kCert, Cause::kIp, Cause::kCred};

/// Why one connection was deemed redundant, with the attribution details
/// the paper's tables need.
struct ConnectionFinding {
  std::size_t connection_index = 0;  // into SiteObservation::connections
  std::set<Cause> causes;
  /// Per cause: the distinct initial domains of the previous connections
  /// that could have been reused ("prev:" rows of Tables 2/4/8/10/12).
  std::map<Cause, std::set<std::string>> reusable_previous_domains;
};

/// One connection a counterfactual policy replay recovered: the browser
/// under the policy would have reused `reused_connection_index` instead of
/// opening `connection_index`.
struct RecoveredConnection {
  std::size_t connection_index = 0;        // into SiteObservation::connections
  std::size_t reused_connection_index = 0; // the survivor it folds into
  /// Operator credited with the recovery: the recovered connection's own
  /// operator, else the survivor's, else the base domain of the
  /// connection's initial domain.
  std::string operator_name;
};

struct SiteClassification {
  std::string site_url;
  std::size_t total_connections = 0;
  std::vector<ConnectionFinding> findings;  // redundant connections only
  /// Connections a counterfactual policy recovered (empty for baseline
  /// policies). `findings` then describe the surviving connections only.
  std::vector<RecoveredConnection> recovered;

  bool has_cause(Cause cause) const noexcept;
  std::size_t count_cause(Cause cause) const noexcept;
  std::size_t redundant_connections() const noexcept {
    return findings.size();
  }
};

/// Reusable per-worker classification state: an arena for site-scoped
/// scratch, a deterministic interner for domains/SANs, and the SoA
/// ConnectionTable the sweep iterates. prepare() builds the table once
/// per site; classify() then sweeps it once per duration model, so the
/// model-independent work (lowering, SAN matching, exclusion tests) is
/// paid once instead of once per model per pair.
///
/// Results are byte-identical to classify_site() — the free function is
/// now a thin wrapper over a thread-local context, and every id the
/// context assigns stays internal (findings materialize interned
/// STRINGS, never ids — DESIGN §12).
///
/// Not thread-safe; one context per worker.
class ClassifyContext {
 public:
  /// Builds the table for `site`. The observation must outlive the next
  /// prepare() (classify() reads site_url, the connection count, and —
  /// for horizon policies — per-request times). prepare() is
  /// knob-independent: one table serves every policy point.
  void prepare(const SiteObservation& site);

  /// Classifies the prepared site under `policy`. Baseline policies
  /// (mask() == 0, no horizon) run the exact paper sweep; counterfactual
  /// policies first replay the browser's reuse decisions under the knobs
  /// (phase 1: recovery), then re-classify the surviving connections
  /// (phase 2) with endpoints remapped as the counterfactual browser
  /// would have rotated addresses.
  SiteClassification classify(const Policy& policy);

  /// The table built by the last prepare() (for tests/benches).
  const ConnectionTable& table() const noexcept { return *table_; }

 private:
  util::Arena arena_;
  Interner interner_;
  const SiteObservation* site_ = nullptr;
  std::optional<ConnectionTable> table_;
  // Model-dependent availability-end column, rebuilt per classify().
  std::vector<util::SimTime> avail_end_;
  // Per-connection (cause x distinct-domain) match marks, generation
  // stamped so clearing is O(matches) instead of O(matrix).
  std::vector<std::uint32_t> marks_;
  std::vector<std::uint32_t> touched_;
  std::uint32_t generation_ = 0;

  // Policy-replay scratch (counterfactual / horizon classifies only).
  std::vector<util::SimTime> cf_last_;      // counterfactual last activity
  std::vector<util::SimTime> cf_end_;       // counterfactual availability end
  std::vector<util::SimTime> idle_gap_;     // closed - last_request_end
  std::vector<std::uint32_t> recovered_into_;
  std::vector<std::uint32_t> remap_;        // survivor -> baseline slot

  SiteClassification classify_replay(const Policy& policy);
};

/// Classifies one site's connections. `connections` must be in open order
/// (ties broken by record order); the classifier asserts monotonicity.
SiteClassification classify_site(const SiteObservation& site,
                                 const Policy& policy = {});

}  // namespace h2r::core

// Aggregation across sites: everything the paper's tables and figures are
// computed from.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "asdb/asdb.hpp"
#include "core/classify.hpp"
#include "core/connection.hpp"
#include "stats/distribution.hpp"
#include "util/fields.hpp"

namespace h2r::core {

struct CauseTally {
  std::uint64_t sites = 0;
  std::uint64_t connections = 0;

  bool operator==(const CauseTally&) const = default;
};

/// Field tables (util/fields.hpp) of the report and its tallies.
auto fields(util::RecordOf<CauseTally> auto& t) {
  auto& [sites, connections] = t;
  return std::tuple(util::row("sites", sites),
                    util::row("connections", connections));
}

/// Order-independent sample multiset (see stats::TimeHistogram) — the
/// representation that keeps shard-merged reports bit-identical to
/// single-pass ones.
using TimeHistogram = stats::TimeHistogram;

/// Per-origin attribution: how many redundant connections had this origin,
/// and which previous-connection origins could have been reused (Tables
/// 2/4/8/10/12's "prev:" rows).
struct OriginTally {
  std::uint64_t connections = 0;
  std::map<std::string, std::uint64_t> previous_origins;
  std::string issuer;  // only filled for CERT attribution (Table 4)

  bool operator==(const OriginTally&) const = default;
};

/// Rows in JSON key order, not declaration order. Merging keeps the
/// first non-empty issuer: the simulation guarantees one issuer per
/// domain.
auto fields(util::RecordOf<OriginTally> auto& t) {
  auto& [connections, previous_origins, issuer] = t;
  return std::tuple(util::row("connections", connections),
                    util::row("issuer", issuer),
                    util::row("previous", previous_origins));
}

struct IssuerTally {
  std::uint64_t connections = 0;
  std::set<std::string> domains;

  bool operator==(const IssuerTally&) const = default;
};

auto fields(util::RecordOf<IssuerTally> auto& t) {
  auto& [connections, domains] = t;
  return std::tuple(util::row("connections", connections),
                    util::row("domains", domains));
}

struct AsTally {
  std::uint64_t connections = 0;
  std::set<std::string> domains;

  bool operator==(const AsTally&) const = default;
};

auto fields(util::RecordOf<AsTally> auto& t) {
  auto& [connections, domains] = t;
  return std::tuple(util::row("connections", connections),
                    util::row("domains", domains));
}

struct AggregateReport {
  // Site-level headline numbers (§5.1).
  std::uint64_t analyzed_sites = 0;       // reachable sites
  std::uint64_t h2_sites = 0;             // >= 1 HTTP/2 connection
  std::uint64_t redundant_sites = 0;      // >= 1 redundant connection
  std::uint64_t total_connections = 0;
  std::uint64_t redundant_connections = 0;
  std::uint64_t filtered_requests = 0;

  std::map<Cause, CauseTally> by_cause;

  /// redundant-connection count -> number of sites (Figure 2 histogram).
  std::map<std::size_t, std::uint64_t> redundant_per_site_histogram;

  /// Cause IP origin attribution (Tables 2, 8, 12).
  std::map<std::string, OriginTally> ip_origins;

  /// Cause CERT domain attribution (Tables 4, 10).
  std::map<std::string, OriginTally> cert_domains;

  /// Cause CERT issuer attribution (Tables 3, 9).
  std::map<std::string, IssuerTally> cert_issuers;

  /// Issuer share over ALL connections (Table 5).
  std::map<std::string, IssuerTally> all_issuers;

  /// Cause IP AS attribution (Table 6). Empty without an AS database.
  std::map<std::string, AsTally> ip_ases;

  // Connection lifetime stats (exact-duration runs; §5.1's "median
  // lifetime 122.2s for the 3.5% that closed"). Histogram so that shard
  // merges stay order-independent.
  std::uint64_t closed_connections = 0;
  TimeHistogram closed_lifetimes_ms;

  // CRED detail (§5.3.3): redundant CRED connections whose own domain was
  // already connected ("connect to the same domain again").
  std::uint64_t cred_same_domain_connections = 0;

  /// Extension analysis (not in the paper): when during the page load do
  /// redundant connections open? Offsets (ms since the site's first
  /// connection) per cause — late openers explain most of the
  /// endless-vs-immediate gap (the reusable connection has gone idle).
  std::map<Cause, TimeHistogram> redundant_open_offsets;

  /// Median open offset for a cause; nullopt when unseen.
  std::optional<util::SimTime> median_open_offset(Cause cause) const;

  /// Folds another shard into this report. Every field is a commutative
  /// sum / map-sum / set-union, so merging any partition of the same site
  /// set in any order produces the same report as single-pass
  /// accumulation.
  void merge(const AggregateReport& shard);

  bool operator==(const AggregateReport&) const = default;

  /// Fraction helpers.
  double redundant_site_share() const noexcept;
  std::optional<util::SimTime> median_closed_lifetime() const;

  /// Number of sites with at least `n` redundant connections (Figure 2 is
  /// the complementary cumulative distribution of this).
  std::uint64_t sites_with_at_least(std::size_t n) const noexcept;
};

auto fields(util::RecordOf<AggregateReport> auto& r) {
  auto& [analyzed_sites, h2_sites, redundant_sites, total_connections,
         redundant_connections, filtered_requests, by_cause,
         redundant_per_site_histogram, ip_origins, cert_domains, cert_issuers,
         all_issuers, ip_ases, closed_connections, closed_lifetimes_ms,
         cred_same_domain_connections, redundant_open_offsets] = r;
  using util::row;
  return std::tuple(
      row("analyzed_sites", analyzed_sites), row("h2_sites", h2_sites),
      row("redundant_sites", redundant_sites),
      row("total_connections", total_connections),
      row("redundant_connections", redundant_connections),
      row("filtered_requests", filtered_requests), row("causes", by_cause),
      row("redundant_per_site", redundant_per_site_histogram),
      row("ip_origins", ip_origins), row("cert_domains", cert_domains),
      row("cert_issuers", cert_issuers), row("all_issuers", all_issuers),
      row("ip_ases", ip_ases), row("closed_connections", closed_connections),
      row("closed_lifetimes_ms", closed_lifetimes_ms),
      row("cred_same_domain_connections", cred_same_domain_connections),
      row("redundant_open_offsets", redundant_open_offsets));
}

/// Per-policy replay totals (DESIGN §14): what one counterfactual policy
/// point recovered across a site set. Deliberately small — the optimizer
/// sweeps 2^k of these per chunk window, so unlike AggregateReport it
/// carries only the ranking surface.
struct PolicyTally {
  std::uint64_t sites = 0;
  /// Baseline connections / redundant connections over the same sites.
  std::uint64_t baseline_connections = 0;
  std::uint64_t baseline_redundant = 0;
  /// Connections the policy's replay recovered (not opened at all).
  std::uint64_t recovered = 0;
  /// Redundant connections still classified among the survivors.
  std::uint64_t remaining_redundant = 0;
  /// Remaining redundant connections by cause.
  std::map<Cause, std::uint64_t> remaining_by_cause;
  /// Recovered connections credited per operator (server operator when
  /// recorded, else the connection's base domain).
  std::map<std::string, std::uint64_t> recovered_by_operator;

  /// Accumulates one site's replay under this tally's policy.
  void add_site(const SiteClassification& baseline,
                const SiteClassification& replayed);

  /// Commutative shard merge (sums / map-sums), like AggregateReport.
  void merge(const PolicyTally& shard);

  bool operator==(const PolicyTally&) const = default;
};

auto fields(util::RecordOf<PolicyTally> auto& t) {
  auto& [sites, baseline_connections, baseline_redundant, recovered,
         remaining_redundant, remaining_by_cause, recovered_by_operator] = t;
  using util::row;
  return std::tuple(row("sites", sites),
                    row("baseline_connections", baseline_connections),
                    row("baseline_redundant", baseline_redundant),
                    row("recovered", recovered),
                    row("remaining_redundant", remaining_redundant),
                    row("remaining_by_cause", remaining_by_cause),
                    row("recovered_by_operator", recovered_by_operator));
}

/// Streaming aggregator: feed (observation, classification) pairs, read the
/// report at the end. The AS database is optional; without it the AS table
/// stays empty. A nonzero `hist_budget` bounds every TimeHistogram the
/// report accumulates to that many bins (see stats::TimeHistogram).
class Aggregator {
 public:
  explicit Aggregator(const asdb::AsDatabase* as_database = nullptr,
                      std::uint32_t hist_budget = 0)
      : as_database_(as_database), hist_budget_(hist_budget) {
    report_.closed_lifetimes_ms = TimeHistogram{hist_budget};
  }

  void add_site(const SiteObservation& site, const SiteClassification& cls);

  const AggregateReport& report() const noexcept { return report_; }

 private:
  const asdb::AsDatabase* as_database_;
  std::uint32_t hist_budget_ = 0;
  AggregateReport report_;
};

/// Sorted top-k view of an attribution map, by connection count descending
/// (ties broken by key for determinism).
template <typename Tally>
std::vector<std::pair<std::string, const Tally*>> top_k(
    const std::map<std::string, Tally>& table, std::size_t k) {
  std::vector<std::pair<std::string, const Tally*>> rows;
  rows.reserve(table.size());
  for (const auto& [key, tally] : table) rows.emplace_back(key, &tally);
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    if (a.second->connections != b.second->connections) {
      return a.second->connections > b.second->connections;
    }
    return a.first < b.first;
  });
  if (rows.size() > k) rows.resize(k);
  return rows;
}

/// 1-based rank of `key` in `table` by connection count (paper's "↑"
/// column); nullopt when absent.
template <typename Tally>
std::optional<std::size_t> rank_of(const std::map<std::string, Tally>& table,
                                   const std::string& key) {
  const auto it = table.find(key);
  if (it == table.end()) return std::nullopt;
  std::size_t rank = 1;
  for (const auto& [other_key, tally] : table) {
    if (tally.connections > it->second.connections ||
        (tally.connections == it->second.connections && other_key < key)) {
      ++rank;
    }
  }
  return rank;
}

/// The most frequent previous origin of a tally (the "prev:" row).
std::optional<std::pair<std::string, std::uint64_t>> top_previous(
    const OriginTally& tally);

/// Restricts observations to the sites named in `keep` (overlap analysis,
/// Tables 7-10).
std::vector<SiteObservation> filter_sites(
    const std::vector<SiteObservation>& sites,
    const std::set<std::string>& keep);

}  // namespace h2r::core

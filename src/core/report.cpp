#include "core/report.hpp"

#include <algorithm>

#include "util/strings.hpp"

namespace h2r::core {

double AggregateReport::redundant_site_share() const noexcept {
  if (h2_sites == 0) return 0.0;
  return static_cast<double>(redundant_sites) / static_cast<double>(h2_sites);
}

std::optional<util::SimTime> AggregateReport::median_closed_lifetime() const {
  return stats::histogram_quantile(closed_lifetimes_ms, 0.5);
}

std::optional<util::SimTime> AggregateReport::median_open_offset(
    Cause cause) const {
  const auto it = redundant_open_offsets.find(cause);
  if (it == redundant_open_offsets.end()) return std::nullopt;
  return stats::histogram_quantile(it->second, 0.5);
}

void PolicyTally::add_site(const SiteClassification& baseline,
                           const SiteClassification& replayed) {
  ++sites;
  baseline_connections += baseline.total_connections;
  baseline_redundant += baseline.findings.size();
  recovered += replayed.recovered.size();
  remaining_redundant += replayed.findings.size();
  for (const ConnectionFinding& finding : replayed.findings) {
    for (const Cause cause : finding.causes) ++remaining_by_cause[cause];
  }
  for (const RecoveredConnection& rec : replayed.recovered) {
    ++recovered_by_operator[rec.operator_name];
  }
}

void PolicyTally::merge(const PolicyTally& shard) {
  util::merge_fields(*this, shard);
}

void AggregateReport::merge(const AggregateReport& shard) {
  util::merge_fields(*this, shard);
}

std::uint64_t AggregateReport::sites_with_at_least(
    std::size_t n) const noexcept {
  std::uint64_t total = 0;
  for (const auto& [count, sites] : redundant_per_site_histogram) {
    if (count >= n) total += sites;
  }
  return total;
}

void Aggregator::add_site(const SiteObservation& site,
                          const SiteClassification& cls) {
  if (!site.reachable) return;
  ++report_.analyzed_sites;
  report_.filtered_requests += site.filtered_requests;
  if (site.connections.empty()) return;

  ++report_.h2_sites;
  report_.total_connections += site.connections.size();

  // Issuer share over all connections (Table 5).
  for (const ConnectionRecord& conn : site.connections) {
    if (conn.has_certificate && !conn.issuer_organization.empty()) {
      IssuerTally& tally = report_.all_issuers[conn.issuer_organization];
      ++tally.connections;
      tally.domains.insert(util::to_lower(conn.initial_domain));
    }
    if (conn.closed_at.has_value()) {
      ++report_.closed_connections;
      report_.closed_lifetimes_ms.add(*conn.closed_at - conn.opened_at);
    }
  }

  if (!cls.findings.empty()) ++report_.redundant_sites;
  report_.redundant_connections += cls.findings.size();
  ++report_.redundant_per_site_histogram[cls.findings.size()];

  for (Cause cause : kAllCauses) {
    if (cls.has_cause(cause)) ++report_.by_cause[cause].sites;
    report_.by_cause[cause].connections += cls.count_cause(cause);
  }

  const util::SimTime page_start =
      site.connections.empty() ? 0 : site.connections.front().opened_at;
  for (const ConnectionFinding& finding : cls.findings) {
    const ConnectionRecord& conn = site.connections[finding.connection_index];
    const std::string domain = util::to_lower(conn.initial_domain);
    for (Cause cause : finding.causes) {
      report_.redundant_open_offsets
          .try_emplace(cause, TimeHistogram{hist_budget_})
          .first->second.add(conn.opened_at - page_start);
    }

    if (finding.causes.count(Cause::kIp) > 0) {
      OriginTally& tally = report_.ip_origins[domain];
      ++tally.connections;
      const auto it = finding.reusable_previous_domains.find(Cause::kIp);
      if (it != finding.reusable_previous_domains.end()) {
        for (const std::string& prev : it->second) {
          ++tally.previous_origins[prev];
        }
      }
      if (as_database_ != nullptr) {
        if (auto as = as_database_->lookup(conn.endpoint.address)) {
          AsTally& as_tally = report_.ip_ases[as->name];
          ++as_tally.connections;
          as_tally.domains.insert(domain);
        }
      }
    }

    if (finding.causes.count(Cause::kCert) > 0) {
      OriginTally& tally = report_.cert_domains[domain];
      ++tally.connections;
      tally.issuer = conn.issuer_organization;
      const auto it = finding.reusable_previous_domains.find(Cause::kCert);
      if (it != finding.reusable_previous_domains.end()) {
        for (const std::string& prev : it->second) {
          ++tally.previous_origins[prev];
        }
      }
      if (conn.has_certificate && !conn.issuer_organization.empty()) {
        IssuerTally& issuer_tally =
            report_.cert_issuers[conn.issuer_organization];
        ++issuer_tally.connections;
        issuer_tally.domains.insert(domain);
      }
    }

    if (finding.causes.count(Cause::kCred) > 0) {
      const auto it = finding.reusable_previous_domains.find(Cause::kCred);
      if (it != finding.reusable_previous_domains.end() &&
          it->second.count(domain) > 0) {
        ++report_.cred_same_domain_connections;
      }
    }
  }
}

std::optional<std::pair<std::string, std::uint64_t>> top_previous(
    const OriginTally& tally) {
  std::optional<std::pair<std::string, std::uint64_t>> best;
  for (const auto& [origin, count] : tally.previous_origins) {
    if (!best.has_value() || count > best->second) {
      best = {origin, count};
    }
  }
  return best;
}

std::vector<SiteObservation> filter_sites(
    const std::vector<SiteObservation>& sites,
    const std::set<std::string>& keep) {
  std::vector<SiteObservation> out;
  for (const SiteObservation& site : sites) {
    if (keep.count(site.site_url) > 0) out.push_back(site);
  }
  return out;
}

}  // namespace h2r::core

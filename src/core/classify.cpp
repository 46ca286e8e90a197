#include "core/classify.hpp"

#include <algorithm>
#include <cassert>

#include "tls/certificate.hpp"
#include "util/strings.hpp"

namespace h2r::core {

bool ConnectionRecord::certificate_covers(
    std::string_view host) const noexcept {
  if (!has_certificate) return false;
  for (const std::string& san : san_dns_names) {
    if (tls::matches_dns_name(san, host)) return true;
  }
  return false;
}

bool ConnectionRecord::excludes(std::string_view host) const noexcept {
  const std::string needle = util::to_lower(host);
  for (const std::string& d : excluded_domains) {
    if (d == needle) return true;
  }
  if (origin_set.has_value()) {
    for (const std::string& d : *origin_set) {
      if (d == needle) return false;
    }
    return true;  // origin set announced and host not in it
  }
  return false;
}

util::SimTime ConnectionRecord::first_request_time() const noexcept {
  if (requests.empty()) return opened_at;
  util::SimTime t = requests.front().started_at;
  for (const RequestRecord& r : requests) t = std::min(t, r.started_at);
  return t;
}

util::SimTime ConnectionRecord::last_request_end() const noexcept {
  util::SimTime t = opened_at;
  for (const RequestRecord& r : requests) {
    t = std::max(t, std::max(r.started_at, r.finished_at));
  }
  return t;
}

std::string to_string(DurationModel model) {
  switch (model) {
    case DurationModel::kEndless: return "endless";
    case DurationModel::kImmediate: return "immediate";
    case DurationModel::kExact: return "exact";
  }
  return "?";
}

Interval availability(const ConnectionRecord& conn,
                      DurationModel model) noexcept {
  switch (model) {
    case DurationModel::kEndless:
      return {conn.opened_at, util::kSimTimeMax};
    case DurationModel::kImmediate:
      // Closed right after the last request finished. The half-open end
      // (+1) keeps a connection usable at the exact instant its last
      // request ends.
      return {conn.opened_at, conn.last_request_end() + 1};
    case DurationModel::kExact:
      return {conn.opened_at,
              conn.closed_at.has_value() ? *conn.closed_at
                                         : util::kSimTimeMax};
  }
  return {};
}

std::string to_string(Cause cause) {
  switch (cause) {
    case Cause::kCert: return "CERT";
    case Cause::kIp: return "IP";
    case Cause::kCred: return "CRED";
  }
  return "?";
}

bool SiteClassification::has_cause(Cause cause) const noexcept {
  return std::any_of(findings.begin(), findings.end(),
                     [cause](const ConnectionFinding& f) {
                       return f.causes.count(cause) > 0;
                     });
}

std::size_t SiteClassification::count_cause(Cause cause) const noexcept {
  return static_cast<std::size_t>(
      std::count_if(findings.begin(), findings.end(),
                    [cause](const ConnectionFinding& f) {
                      return f.causes.count(cause) > 0;
                    }));
}

// h2r-lint: hotpath -- runs once per site per worker; the arena reset +
// SoA rebuild here is the 2.2x win the allocation rule guards
void ClassifyContext::prepare(const SiteObservation& site) {
  site_ = &site;
  // Site-scoped scratch dies here; the table is rebuilt on the rewound
  // arena.
  table_.reset();
  arena_.reset();
  // Workers live for millions of sites: cap the interner so unique
  // per-site domains cannot grow it without bound. Ids never escape the
  // context, so the reset is invisible to results.
  if (interner_.pool_bytes() > (1u << 22) || interner_.size() > (1u << 18)) {
    interner_.clear();
  }
  table_.emplace(&arena_);
  table_->build(site, interner_);
}

SiteClassification ClassifyContext::classify(const Policy& policy) {
  assert(site_ != nullptr && "prepare() must run before classify()");
  if (policy.counterfactual() || policy.horizon != util::kSimTimeMax) {
    return classify_replay(policy);
  }
  const ConnectionTable& table = *table_;
  const std::size_t n = table.size();
  const std::size_t ndom = table.distinct_domains();

  SiteClassification result;
  result.site_url = site_->site_url;
  result.total_connections = n;

  // Availability end per connection under this duration model — the only
  // model-dependent column, O(n) per sweep.
  avail_end_.assign(n, util::kSimTimeMax);
  switch (policy.duration) {
    case DurationModel::kEndless:
      break;
    case DurationModel::kImmediate:
      // Closed right after the last request finished; the half-open end
      // (+1) keeps a connection usable at that exact instant.
      for (std::size_t j = 0; j < n; ++j) {
        avail_end_[j] = table.last_request_end[j] + 1;
      }
      break;
    case DurationModel::kExact:
      for (std::size_t j = 0; j < n; ++j) {
        avail_end_[j] = table.closed_or_max[j];
      }
      break;
  }

  marks_.assign(3 * ndom, 0);
  generation_ = 0;

  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t dom_i = table.domain[i];
    const std::uint32_t local_i = table.local_domain[i];
    const std::uint32_t ep_i = table.endpoint[i];
    const util::SimTime opened_i = table.opened[i];

    ++generation_;
    touched_.clear();
    std::set<Cause> causes;

    for (std::size_t j = 0; j < i; ++j) {
      // The previous connection must have been available when `i` was
      // opened (open order makes opened[j] <= opened_i; the lower bound
      // is kept for hand-built, unsorted observations in release mode).
      if (opened_i >= avail_end_[j] || opened_i < table.opened[j]) continue;
      // Explicitly excluded domains are ignored (§4.1).
      if (table.excludes_domain(j, local_i)) continue;

      const bool same_endpoint = table.endpoint[j] == ep_i;
      const bool covers = table.covers_domain(j, local_i);
      const bool same_initial_domain = table.domain[j] == dom_i;

      Cause cause;
      if (same_endpoint) {
        cause = covers ? Cause::kCred : Cause::kCert;
      } else if (same_initial_domain) {
        // Corner case (§4.1): same initial domain on different IPs only
        // happens when CRED forbids reuse and DNS announces several IPs.
        cause = Cause::kCred;
      } else if (covers) {
        cause = Cause::kIp;
      } else {
        // No match: `j` could not have served this request — an unknown
        // third party relative to `j`.
        continue;
      }
      causes.insert(cause);
      const std::uint32_t mark = static_cast<std::uint32_t>(
          static_cast<std::size_t>(cause) * ndom + table.local_domain[j]);
      if (marks_[mark] != generation_) {
        marks_[mark] = generation_;
        touched_.push_back(mark);
      }
    }

    if (!causes.empty()) {
      ConnectionFinding finding;
      finding.connection_index = i;
      finding.causes = std::move(causes);
      // Materialize interned ids back into strings here and only here:
      // findings (and everything serialized from them) carry the domain
      // text, so per-worker id spaces never leak into output.
      for (const std::uint32_t mark : touched_) {
        const Cause cause = static_cast<Cause>(mark / ndom);
        const std::uint32_t dom = table.domains[mark % ndom];
        finding.reusable_previous_domains[cause].insert(
            std::string(interner_.str(dom)));
      }
      result.findings.push_back(std::move(finding));
    }
  }
  return result;
}

// The counterfactual replay (DESIGN §14). Phase 1 re-runs the browser's
// session-acquisition decisions under the policy knobs: a connection the
// counterfactual browser could have served from an existing session is
// *recovered* (absorbed into that survivor, extending the survivor's idle
// window). Phase 2 re-classifies the survivors with the paper's pair
// sweep, with each survivor's endpoint/certificate/vhost columns remapped
// to the slot the counterfactual address rotation would have given it.
// A horizon policy additionally truncates the observation as if
// measurement stopped at the horizon.
SiteClassification ClassifyContext::classify_replay(const Policy& policy) {
  constexpr std::uint32_t kNone = 0xFFFFFFFFu;
  const ConnectionTable& table = *table_;
  const std::size_t n = table.size();
  const std::size_t ndom = table.distinct_domains();
  const bool horizoned = policy.horizon != util::kSimTimeMax;

  // Visible prefix under the horizon (connections are in open order).
  std::size_t n_vis = n;
  if (horizoned) {
    n_vis = 0;
    while (n_vis < n && table.opened[n_vis] < policy.horizon) ++n_vis;
  }

  SiteClassification result;
  result.site_url = site_->site_url;
  // Set after phase 1: the connections the counterfactual browser still
  // opens (visible minus recovered).
  result.total_connections = n_vis;

  // Horizon-adjusted last activity and idle gap. The gap (close minus
  // last request end) is the server/browser idle timeout in effect for
  // that connection; the replay re-applies it after a survivor absorbs
  // extra traffic.
  cf_last_.assign(n_vis, 0);
  idle_gap_.assign(n_vis, util::kSimTimeMax);
  for (std::size_t j = 0; j < n_vis; ++j) {
    util::SimTime last = table.last_request_end[j];
    util::SimTime closed = table.closed_or_max[j];
    if (horizoned) {
      if (closed != util::kSimTimeMax && closed > policy.horizon) {
        closed = util::kSimTimeMax;  // closed after measurement end
      }
      const ConnectionRecord& c = site_->connections[j];
      last = c.opened_at;
      for (const RequestRecord& r : c.requests) {
        if (r.started_at >= policy.horizon) continue;
        last = std::max(last, std::max(r.started_at, r.finished_at));
      }
    }
    cf_last_[j] = last;
    if (closed != util::kSimTimeMax) {
      idle_gap_[j] = closed > last ? closed - last : 0;
    }
  }

  const auto avail_gap = [&policy](util::SimTime last, util::SimTime gap) {
    switch (policy.duration) {
      case DurationModel::kEndless:
        return util::kSimTimeMax;
      case DurationModel::kImmediate:
        return last + 1;
      case DurationModel::kExact:
        return gap == util::kSimTimeMax ? util::kSimTimeMax : last + gap;
    }
    return util::kSimTimeMax;
  };

  // Effective operator key: the recorded operator when known, else the
  // base domain — HAR records carry no operator, so same-eTLD+1 stands in.
  const auto op_key = [&table](std::size_t j) {
    return table.operator_id[j] != ConnectionTable::kNoOperator
               ? table.operator_id[j]
               : table.base_domain[j];
  };

  // Baseline connection indices per distinct domain, in open order: the
  // counterfactual browser rotates resolver addresses by per-host
  // creation count, so the m-th *surviving* connection of a host takes
  // the endpoint/certificate/vhost/operator/idle-gap columns of the m-th
  // *baseline* connection of that host.
  std::vector<std::vector<std::uint32_t>> by_domain(ndom);
  for (std::size_t j = 0; j < n_vis; ++j) {
    by_domain[table.local_domain[j]].push_back(static_cast<std::uint32_t>(j));
  }
  std::vector<std::uint32_t> next_slot(ndom, 0);

  // Exclusion under the policy: with ORIGIN frames deployed the origin
  // set IS the vhost list, so reuse is refused exactly for domains the
  // server does not serve; otherwise the baseline 421/ORIGIN knowledge
  // applies. `rj` is the candidate's remapped (column) index.
  const auto excluded_for = [&](std::size_t rj, std::uint32_t local_i) {
    if (policy.origin_frame && table.has_served[rj] != 0) {
      return !table.serves_domain(rj, local_i);
    }
    return table.excludes_domain(rj, local_i);
  };

  // ---- Phase 1: replay session acquisition, newest candidate first.
  recovered_into_.assign(n_vis, kNone);
  remap_.assign(n_vis, 0);
  cf_end_.assign(n_vis, 0);
  const std::uint8_t mask = policy.mask();
  for (std::size_t i = 0; i < n_vis; ++i) {
    const std::uint32_t dom_i = table.domain[i];
    const std::uint32_t local_i = table.local_domain[i];
    const util::SimTime opened_i = table.opened[i];
    const std::uint8_t priv_i = table.privacy[i];
    // The slot this connection would occupy if it survives: its endpoint
    // and operator in the counterfactual world.
    const std::uint32_t slot_i = by_domain[local_i][next_slot[local_i]];
    const std::uint32_t ep_i = table.endpoint[slot_i];
    const std::uint32_t opkey_i = op_key(slot_i);

    std::size_t best = kNone;
    if (mask != 0) {
      // Pass 0: the host's own pool (group reuse — no certificate check,
      // like the browser's session-group table). Pass 1: same endpoint
      // (alias/IP pooling). Pass 2: the policy's cross-IP paths.
      for (int pass = 0; pass < 3 && best == kNone; ++pass) {
        for (std::size_t j = i; j-- > 0;) {
          if (recovered_into_[j] != kNone) continue;
          if (opened_i >= cf_end_[j] || opened_i < table.opened[j]) continue;
          const std::size_t rj = remap_[j];
          if (excluded_for(rj, local_i)) continue;
          if (!policy.ignore_credentials && table.privacy[j] != priv_i) {
            continue;
          }
          const bool covers2 =
              table.covers_domain(rj, local_i) ||
              (policy.cert_consolidation && op_key(rj) == opkey_i);
          bool match = false;
          switch (pass) {
            case 0:
              match = table.domain[j] == dom_i;
              break;
            case 1:
              match = table.endpoint[rj] == ep_i && covers2;
              break;
            case 2:
              if (policy.origin_frame && table.has_served[rj] != 0 &&
                  table.serves_domain(rj, local_i) && covers2) {
                match = true;
              } else if (policy.sync_dns && covers2 &&
                         (table.has_served[rj] == 0 ||
                          table.serves_domain(rj, local_i))) {
                match = true;
              }
              break;
          }
          if (match) {
            best = j;
            break;
          }
        }
      }
    }

    if (best != kNone) {
      recovered_into_[i] = static_cast<std::uint32_t>(best);
      // The survivor absorbs this connection's traffic; its idle close
      // moves out accordingly.
      cf_last_[best] = std::max(cf_last_[best], cf_last_[i]);
      cf_end_[best] = avail_gap(cf_last_[best], idle_gap_[remap_[best]]);
      RecoveredConnection rec;
      rec.connection_index = i;
      rec.reused_connection_index = best;
      std::uint32_t credit = table.operator_id[slot_i];
      if (credit == ConnectionTable::kNoOperator) {
        credit = table.operator_id[remap_[best]];
      }
      if (credit == ConnectionTable::kNoOperator) {
        credit = table.base_domain[i];
      }
      rec.operator_name = std::string(interner_.str(credit));
      result.recovered.push_back(std::move(rec));
    } else {
      remap_[i] = slot_i;
      ++next_slot[local_i];
      cf_end_[i] = avail_gap(cf_last_[i], idle_gap_[slot_i]);
    }
  }

  result.total_connections = n_vis - result.recovered.size();

  // ---- Phase 2: the paper's pair sweep over the survivors, with
  // remapped columns and the policy's exclusion semantics.
  marks_.assign(3 * ndom, 0);
  generation_ = 0;
  for (std::size_t i = 0; i < n_vis; ++i) {
    if (recovered_into_[i] != kNone) continue;
    const std::size_t ri = remap_[i];
    const std::uint32_t dom_i = table.domain[i];
    const std::uint32_t local_i = table.local_domain[i];
    const std::uint32_t ep_i = table.endpoint[ri];
    const std::uint32_t opkey_i = op_key(ri);
    const util::SimTime opened_i = table.opened[i];

    ++generation_;
    touched_.clear();
    std::set<Cause> causes;

    for (std::size_t j = 0; j < i; ++j) {
      if (recovered_into_[j] != kNone) continue;
      if (opened_i >= cf_end_[j] || opened_i < table.opened[j]) continue;
      const std::size_t rj = remap_[j];
      if (excluded_for(rj, local_i)) continue;

      const bool same_endpoint = table.endpoint[rj] == ep_i;
      const bool covers = table.covers_domain(rj, local_i) ||
                          (policy.cert_consolidation && op_key(rj) == opkey_i);
      const bool same_initial_domain = table.domain[j] == dom_i;

      Cause cause;
      if (same_endpoint) {
        cause = covers ? Cause::kCred : Cause::kCert;
      } else if (same_initial_domain) {
        cause = Cause::kCred;
      } else if (covers) {
        cause = Cause::kIp;
      } else {
        continue;
      }
      causes.insert(cause);
      const std::uint32_t mark = static_cast<std::uint32_t>(
          static_cast<std::size_t>(cause) * ndom + table.local_domain[j]);
      if (marks_[mark] != generation_) {
        marks_[mark] = generation_;
        touched_.push_back(mark);
      }
    }

    if (!causes.empty()) {
      ConnectionFinding finding;
      finding.connection_index = i;
      finding.causes = std::move(causes);
      for (const std::uint32_t mark : touched_) {
        const Cause cause = static_cast<Cause>(mark / ndom);
        const std::uint32_t dom = table.domains[mark % ndom];
        finding.reusable_previous_domains[cause].insert(
            std::string(interner_.str(dom)));
      }
      result.findings.push_back(std::move(finding));
    }
  }
  return result;
}

SiteClassification classify_site(const SiteObservation& site,
                                 const Policy& policy) {
  // One context per thread: callers that loop (tests, examples, the
  // study's per-worker sinks before they switched to explicit contexts)
  // get warmed-up arena + interner reuse for free.
  thread_local ClassifyContext context;
  context.prepare(site);
  return context.classify(policy);
}

}  // namespace h2r::core

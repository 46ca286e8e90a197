// Website population generator.
//
// A single *universe* of sites is generated deterministically by rank, so
// the HTTP-Archive-like population and the Alexa-like population can share
// sites (the overlap analysis of Tables 7-10 intersects the two site
// sets). Embed probabilities depend on the rank: top-ranked sites carry
// more third-party services, matching the paper's observation that its
// Alexa measurements see more redundancy than the broad HTTP Archive mix.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/rng.hpp"
#include "web/catalog.hpp"
#include "web/ecosystem.hpp"
#include "web/resource.hpp"

namespace h2r::web {

/// Per-site third-party embed probabilities, interpolated by rank between
/// `top` (rank 0) and `tail` (rank >= tail_rank).
struct EmbedProbabilities {
  double gtm = 0.5;          // googletagmanager -> google-analytics
  double ads = 0.25;         // the Google ads constellation
  double fonts = 0.4;        // Google Fonts CSS + anonymous font
  double faulty_preconnect = 0.45;  // among font users: preconnect w/o
                                    // crossorigin (CRED, same domain)
  double gstatic = 0.18;     // reCAPTCHA-style widget
  double apis = 0.15;        // apis.google.com / www.google.{com,de}
  double youtube = 0.08;
  double facebook = 0.3;
  double hotjar = 0.04;
  double wordpress = 0.05;
  double klaviyo = 0.02;
  double squarespace = 0.012;
  double unruly = 0.004;
  double reddit = 0.003;
  double yandex = 0.03;
  double clarity = 0.02;
  double js_cdn = 0.25;          // cdnjs / jsdelivr / jquery (clean)
  double cookie_consent = 0.15;  // CMP loader (clean)
  double cf_insights = 0.08;     // analytics beacon (clean)
  double generic_mean = 2.0;  // expected number of long-tail services
};

struct UniverseConfig {
  std::uint64_t seed = 42;
  /// Ranks below this use `top` probabilities; interpolation decays to
  /// `tail` at `tail_rank`.
  std::size_t top_rank = 4000;
  std::size_t tail_rank = 40000;
  EmbedProbabilities top;
  EmbedProbabilities tail;

  // First-party structure.
  double p_shard = 0.55;            // site serves assets from subdomains
  double p_shard_cert_split = 0.08; // per-domain certbot certs -> CERT
  double p_shard_wildcard = 0.25;   // wildcard cert (reuse-friendly)
  double p_multi_ip = 0.35;         // DNS announces 2 addresses
  double p_unsync_own_lb = 0.25;    // own shards LB'd independently -> IP
  double p_own_font = 0.55;         // cross-origin font from own shard
  double p_bare_site = 0.06;        // HTTP/1.1-only, no third parties
  double p_unreachable = 0.02;
  double p_expired_cert = 0.008;  // forgotten renewals -> TLS failure
  /// Deploy RFC 8336 ORIGIN frames on first-party clusters (ablation).
  bool announce_origin_frames = false;

  static UniverseConfig defaults();
};

/// Generates sites by rank, holding none of them; each site's own hosting
/// cluster is a self-contained SiteDeployment overlay
/// (Ecosystem::plan_cluster), so generation never mutates the shared
/// ecosystem.
class SiteUniverse {
 public:
  SiteUniverse(Ecosystem& eco, const ServiceCatalog& catalog,
               UniverseConfig config = UniverseConfig::defaults());

  /// The website at `rank`, generated from (universe seed, rank) alone —
  /// a pure function, safe to call concurrently. Two calls (on any
  /// threads, in any order) return identical sites.
  Website generate_site(std::size_t rank) const;

  /// Resource sets of `count` internal pages of the site at `rank`
  /// (deterministic). Internal pages share the site's template: most
  /// embeds recur, plus a few page-specific assets. Used by the
  /// internal-pages ablation — the paper only measured landing pages
  /// (§4.3).
  std::vector<std::vector<Resource>> internal_pages(std::size_t rank,
                                                    std::size_t count) const;

  /// True if the site is simulated as unreachable (timeout / DNS failure).
  bool unreachable(std::size_t rank) const;

  const UniverseConfig& config() const noexcept { return config_; }

  Ecosystem& ecosystem() noexcept { return eco_; }
  const Ecosystem& ecosystem() const noexcept { return eco_; }

 private:
  Website generate(std::size_t rank, util::Rng& rng) const;
  EmbedProbabilities probabilities_for(std::size_t rank) const;
  void build_first_party(Website& site, std::size_t rank, util::Rng& rng,
                         bool bare) const;

  Ecosystem& eco_;
  const ServiceCatalog& catalog_;
  UniverseConfig config_;
};

}  // namespace h2r::web

#include "web/sitegen.hpp"

#include <algorithm>
#include <cassert>
#include <iterator>
#include <set>

namespace h2r::web {

std::size_t total_requests(const Website& site) {
  std::size_t count = 1;  // the document
  struct Walker {
    static std::size_t walk(const std::vector<Resource>& resources) {
      std::size_t n = 0;
      for (const Resource& r : resources) {
        if (!r.preconnect) ++n;
        n += walk(r.children);
      }
      return n;
    }
  };
  return count + Walker::walk(site.resources);
}

UniverseConfig UniverseConfig::defaults() {
  UniverseConfig config;
  // Top-of-the-list sites: more trackers, ads and widgets.
  config.top.gtm = 0.72;
  config.top.ads = 0.38;
  config.top.fonts = 0.52;
  config.top.faulty_preconnect = 0.65;
  config.top.gstatic = 0.3;
  config.top.apis = 0.32;
  config.top.youtube = 0.12;
  config.top.facebook = 0.38;
  config.top.hotjar = 0.09;
  config.top.wordpress = 0.04;
  config.top.klaviyo = 0.03;
  config.top.squarespace = 0.008;
  config.top.unruly = 0.016;
  config.top.reddit = 0.006;
  config.top.yandex = 0.05;
  config.top.clarity = 0.04;
  config.top.js_cdn = 0.3;
  config.top.cookie_consent = 0.3;
  config.top.cf_insights = 0.1;
  config.top.generic_mean = 6.0;
  // The long tail: fewer embeds overall.
  config.tail.gtm = 0.38;
  config.tail.ads = 0.22;
  config.tail.fonts = 0.42;
  config.tail.faulty_preconnect = 0.5;
  config.tail.gstatic = 0.12;
  config.tail.apis = 0.1;
  config.tail.youtube = 0.07;
  config.tail.facebook = 0.22;
  config.tail.hotjar = 0.035;
  config.tail.wordpress = 0.06;
  config.tail.klaviyo = 0.018;
  config.tail.squarespace = 0.012;
  config.tail.unruly = 0.004;
  config.tail.reddit = 0.002;
  config.tail.yandex = 0.03;
  config.tail.clarity = 0.015;
  config.tail.js_cdn = 0.22;
  config.tail.cookie_consent = 0.12;
  config.tail.cf_insights = 0.07;
  config.tail.generic_mean = 3.2;
  return config;
}

SiteUniverse::SiteUniverse(Ecosystem& eco, const ServiceCatalog& catalog,
                           UniverseConfig config)
    : eco_(eco), catalog_(catalog), config_(config) {}

EmbedProbabilities SiteUniverse::probabilities_for(std::size_t rank) const {
  const EmbedProbabilities& top = config_.top;
  const EmbedProbabilities& tail = config_.tail;
  double w = 0.0;
  if (rank <= config_.top_rank) {
    w = 1.0;
  } else if (rank < config_.tail_rank) {
    w = 1.0 - static_cast<double>(rank - config_.top_rank) /
                  static_cast<double>(config_.tail_rank - config_.top_rank);
  }
  auto mix = [w](double a, double b) { return b + (a - b) * w; };
  EmbedProbabilities p;
  p.gtm = mix(top.gtm, tail.gtm);
  p.ads = mix(top.ads, tail.ads);
  p.fonts = mix(top.fonts, tail.fonts);
  p.faulty_preconnect = mix(top.faulty_preconnect, tail.faulty_preconnect);
  p.gstatic = mix(top.gstatic, tail.gstatic);
  p.apis = mix(top.apis, tail.apis);
  p.youtube = mix(top.youtube, tail.youtube);
  p.facebook = mix(top.facebook, tail.facebook);
  p.hotjar = mix(top.hotjar, tail.hotjar);
  p.wordpress = mix(top.wordpress, tail.wordpress);
  p.klaviyo = mix(top.klaviyo, tail.klaviyo);
  p.squarespace = mix(top.squarespace, tail.squarespace);
  p.unruly = mix(top.unruly, tail.unruly);
  p.reddit = mix(top.reddit, tail.reddit);
  p.yandex = mix(top.yandex, tail.yandex);
  p.clarity = mix(top.clarity, tail.clarity);
  p.js_cdn = mix(top.js_cdn, tail.js_cdn);
  p.cookie_consent = mix(top.cookie_consent, tail.cookie_consent);
  p.cf_insights = mix(top.cf_insights, tail.cf_insights);
  p.generic_mean = mix(top.generic_mean, tail.generic_mean);
  return p;
}

bool SiteUniverse::unreachable(std::size_t rank) const {
  util::Rng rng{util::combine_seed(config_.seed,
                                   0xDEADull ^ static_cast<std::uint64_t>(rank))};
  return rng.chance(config_.p_unreachable);
}

Website SiteUniverse::generate_site(std::size_t rank) const {
  util::Rng rng{util::combine_seed(config_.seed, rank)};
  return generate(rank, rng);
}

void SiteUniverse::build_first_party(Website& site, std::size_t rank,
                                     util::Rng& rng, bool bare) const {
  const std::string base = "site" + std::to_string(rank);
  static const char* kTlds[] = {"com", "com", "com", "net",
                                "org", "de",  "io",  "shop"};
  const std::string tld = kTlds[rng.index(std::size(kTlds))];
  const std::string apex = base + "." + tld;
  site.landing_domain = "www." + apex;
  site.url = "https://" + site.landing_domain;

  // Hosting AS and certificate issuer mixes (rough Table 5/6 shares).
  static const std::vector<std::string> kHosts = {
      "CLOUDFLARENET", "AMAZON-02",  "UNIFIEDLAYER-AS-1", "OVH",
      "HETZNER-AS",    "DIGITALOCEAN-ASN", "FASTLY",      "AKAMAI-AS",
      "AMAZON-AES",    "GOOGLE",     "AKAMAI-ASN1",       "MICROSOFT-CORP",
  };
  static const std::vector<double> kHostWeights = {25, 15, 12, 12, 10, 8,
                                                   4,  4,  4,  3,  2,  1};
  const std::string host_as = kHosts[rng.weighted(kHostWeights)];

  std::string issuer;
  if (host_as == "CLOUDFLARENET") {
    issuer = rng.chance(0.6) ? "Cloudflare, Inc." : "Let's Encrypt";
  } else if (host_as == "AMAZON-02" || host_as == "AMAZON-AES") {
    const double roll = rng.uniform01();
    issuer = roll < 0.45 ? "Amazon"
             : roll < 0.8 ? "Let's Encrypt"
                          : "DigiCert Inc";
  } else {
    static const std::vector<std::string> kIssuers = {
        "Let's Encrypt",    "Sectigo Limited",  "DigiCert Inc",
        "GoDaddy.com, Inc.", "GlobalSign nv-sa", "COMODO CA Limited",
        "Google Trust Services",
    };
    static const std::vector<double> kIssuerWeights = {55, 12, 8, 9, 6, 5, 5};
    issuer = kIssuers[rng.weighted(kIssuerWeights)];
  }

  // Subdomain shards.
  std::vector<std::string> domains = {site.landing_domain};
  const bool sharded = !bare && rng.chance(config_.p_shard);
  std::string static_shard;
  std::string img_shard;
  if (sharded) {
    static_shard = "static." + apex;
    domains.push_back(static_shard);
    if (rng.chance(0.6)) {
      img_shard = "img." + apex;
      domains.push_back(img_shard);
    }
    if (rng.chance(0.25)) domains.push_back("cdn." + apex);
  }

  ClusterSpec spec;
  spec.operator_name = apex;
  spec.as_name = host_as;
  spec.ip_count = 1 + rng.escalating(0, config_.p_multi_ip, 2);
  spec.h2_enabled = !bare;

  // A small share of operators forgot to renew: the certificate expired
  // before the crawl began and the browser refuses the handshake.
  const bool expired = rng.chance(config_.p_expired_cert);
  const util::SimTime not_after =
      expired ? util::hours(1) : util::kSimTimeMax;

  // Certificate policy.
  const double cert_roll = rng.uniform01();
  if (sharded && cert_roll < config_.p_shard_cert_split) {
    // certbot-per-subdomain: disjunct certs (CERT long tail).
    for (const std::string& d : domains) {
      spec.certs.push_back({issuer, {d}, 0, not_after});
    }
  } else if (sharded &&
             cert_roll < config_.p_shard_cert_split + config_.p_shard_wildcard) {
    spec.certs.push_back({issuer, {apex, "*." + apex}, 0, not_after});
  } else {
    std::vector<std::string> sans = domains;
    sans.push_back(apex);
    spec.certs.push_back({issuer, sans, 0, not_after});
  }

  // DNS: all shards resolve over the same small pool; with multiple IPs,
  // some operators let subdomains rotate independently (own-shard IP
  // redundancy), others pin everything (reuse-friendly).
  const bool unsync = spec.ip_count > 1 && rng.chance(config_.p_unsync_own_lb);
  for (const std::string& d : domains) {
    DomainSpec ds;
    ds.name = d;
    if (unsync) {
      ds.lb.policy = dns::LbPolicy::kPerResolverShuffle;
      ds.lb.answer_count = 1;
      ds.lb.slot_duration = util::minutes(5);
    } else {
      ds.lb.policy = dns::LbPolicy::kStatic;
      ds.lb.answer_count = spec.ip_count > 1 && rng.chance(0.5) ? 2 : 1;
    }
    ds.ttl_seconds = 60 + 60 * static_cast<std::uint32_t>(rng.index(5));
    spec.domains.push_back(std::move(ds));
  }
  // A small share of servers closes idle connections (the ~3.5% of
  // connections the paper saw closing, median lifetime ~122s).
  if (rng.chance(0.12)) {
    spec.idle_timeout =
        util::seconds(60 + static_cast<std::int64_t>(rng.uniform(0, 130)));
  }
  spec.announce_origin_frame = config_.announce_origin_frames;
  // The site's cluster is planned as a self-contained overlay, not added
  // to the shared ecosystem: plan_cluster derives addresses, LB salts and
  // cert serials purely from the allocation seed (its own Rng — the
  // site-body stream `rng` is untouched), so any worker regenerating
  // this rank gets the identical deployment.
  site.deployment = std::make_shared<const SiteDeployment>(eco_.plan_cluster(
      spec, util::combine_seed(config_.seed,
                               0xA110Cull ^ static_cast<std::uint64_t>(rank))));

  if (bare) return;

  // First-party assets.
  const std::size_t asset_count = 2 + rng.index(5);
  for (std::size_t i = 0; i < asset_count; ++i) {
    const std::string& from =
        !img_shard.empty() && rng.chance(0.5)   ? img_shard
        : !static_shard.empty() && rng.chance(0.6) ? static_shard
                                                   : site.landing_domain;
    Resource r;
    r.domain = from;
    r.path = "/assets/a" + std::to_string(i);
    r.destination =
        rng.chance(0.6) ? fetch::Destination::kImage
        : rng.chance(0.5) ? fetch::Destination::kScript
                          : fetch::Destination::kStyle;
    r.start_delay = jitter(rng, 10, 600);
    r.size_bytes = 2048 + static_cast<std::uint32_t>(rng.uniform(0, 60000));
    // The occasional hero image / bundle exceeds the 64 KiB initial
    // flow-control window and stalls on WINDOW_UPDATEs.
    if (rng.chance(0.15)) {
      r.size_bytes = 80 * 1024 + static_cast<std::uint32_t>(
                                     rng.uniform(0, 400 * 1024));
    }
    site.resources.push_back(std::move(r));
  }

  // Cross-origin font from the static shard: fetched anonymously while the
  // images above used a credentialed connection to the same host -> CRED.
  if (!static_shard.empty() && rng.chance(config_.p_own_font)) {
    Resource woff;
    woff.domain = static_shard;
    woff.path = "/fonts/brand.woff2";
    woff.destination = fetch::Destination::kFont;
    woff.crossorigin_anonymous = true;
    woff.start_delay = jitter(rng, 100, 900);
    woff.size_bytes = 30 * 1024;
    site.resources.push_back(std::move(woff));
  }
}

std::vector<std::vector<Resource>> SiteUniverse::internal_pages(
    std::size_t rank, std::size_t count) const {
  const Website landing = generate_site(rank);
  std::vector<std::vector<Resource>> out;
  out.reserve(count);
  util::Rng rng{util::combine_seed(config_.seed,
                                   0x1A7E5ull ^ static_cast<std::uint64_t>(rank))};
  for (std::size_t p = 0; p < count; ++p) {
    std::vector<Resource> resources;
    // Template assets and embeds recur on internal pages.
    for (const Resource& r : landing.resources) {
      if (rng.chance(0.65)) resources.push_back(r);
    }
    // Occasionally an internal page pulls in a service the landing page
    // did not (a new widget, another ad slot).
    const auto& generics = catalog_.generic_services();
    if (!generics.empty() && rng.chance(0.35)) {
      for (Resource& r :
           catalog_.generic_embed(generics[rng.index(generics.size())], rng)) {
        resources.push_back(std::move(r));
      }
    }
    // Page-specific content.
    const std::size_t extra = 1 + rng.index(3);
    for (std::size_t i = 0; i < extra; ++i) {
      Resource r;
      r.domain = landing.landing_domain;
      r.path = "/content/p" + std::to_string(p) + "-" + std::to_string(i);
      r.destination = rng.chance(0.7) ? fetch::Destination::kImage
                                      : fetch::Destination::kScript;
      r.start_delay = jitter(rng, 20, 500);
      r.size_bytes = 4096 + static_cast<std::uint32_t>(rng.uniform(0, 90000));
      resources.push_back(std::move(r));
    }
    out.push_back(std::move(resources));
  }
  return out;
}

Website SiteUniverse::generate(std::size_t rank, util::Rng& rng) const {
  Website site;
  const bool bare = rng.chance(config_.p_bare_site);
  build_first_party(site, rank, rng, bare);
  if (bare) return site;

  const EmbedProbabilities p = probabilities_for(rank);
  std::vector<Resource> embeds;
  auto add = [&embeds](Resource r) { embeds.push_back(std::move(r)); };
  auto add_all = [&embeds](std::vector<Resource> rs) {
    for (Resource& r : rs) embeds.push_back(std::move(r));
  };

  if (rng.chance(p.gtm)) add(catalog_.google_tag_manager(rng));
  const bool has_ads = rng.chance(p.ads);
  if (has_ads) add(catalog_.google_ads(rng));
  if (rng.chance(p.fonts)) {
    add_all(catalog_.google_fonts(rng, rng.chance(p.faulty_preconnect)));
  }
  if (rng.chance(p.gstatic)) add(catalog_.gstatic_widget(rng));
  if (rng.chance(p.apis)) add(catalog_.google_apis(rng));
  if (rng.chance(p.youtube)) add(catalog_.youtube_embed(rng));
  if (rng.chance(p.facebook)) add(catalog_.facebook_pixel(rng));
  if (rng.chance(p.hotjar)) add(catalog_.hotjar(rng));
  if (rng.chance(p.wordpress)) add(catalog_.wordpress_stats(rng));
  if (rng.chance(p.klaviyo)) add(catalog_.klaviyo(rng));
  if (rng.chance(p.squarespace)) add(catalog_.squarespace_assets(rng));
  if (rng.chance(p.unruly)) add(catalog_.unruly_sync(rng));
  if (rng.chance(p.reddit)) add(catalog_.reddit_widget(rng));
  if (rng.chance(p.yandex)) add(catalog_.yandex_metrica(rng));
  if (rng.chance(p.clarity)) add(catalog_.ms_clarity(rng));
  if (rng.chance(p.js_cdn)) add(catalog_.js_cdn(rng));
  if (rng.chance(p.cookie_consent)) add(catalog_.cookie_consent(rng));
  if (rng.chance(p.cf_insights)) add(catalog_.cloudflare_insights(rng));

  // Long-tail services, zipf-weighted so a few generics are popular.
  const auto& generics = catalog_.generic_services();
  if (!generics.empty() && p.generic_mean > 0) {
    static const util::ZipfSampler sampler(512, 0.9);
    std::size_t n = rng.escalating(
        0, p.generic_mean / (1.0 + p.generic_mean), 12);
    // Ad-funded sites pull in extra sync/measurement parties.
    if (has_ads) n += 2 + rng.index(5);
    std::set<std::size_t> used;
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t idx = sampler.sample(rng) % generics.size();
      if (!used.insert(idx).second) continue;  // no duplicate embeds
      add_all(catalog_.generic_embed(generics[idx], rng));
    }
  }

  rng.shuffle(embeds);
  for (Resource& r : embeds) site.resources.push_back(std::move(r));
  return site;
}

}  // namespace h2r::web

#include <gtest/gtest.h>

#include <set>

#include "web/catalog.hpp"
#include "web/ecosystem.hpp"
#include "web/sitegen.hpp"

namespace h2r::web {
namespace {

net::Prefix pfx(const char* s) { return net::Prefix::parse(s).value(); }

Ecosystem make_eco() {
  Ecosystem eco{7};
  eco.register_as("TEST-AS", 64500, pfx("10.10.0.0/16"));
  return eco;
}

ClusterSpec basic_cluster() {
  ClusterSpec spec;
  spec.operator_name = "op";
  spec.as_name = "TEST-AS";
  spec.ip_count = 2;
  spec.certs = {{"Test CA", {"*.svc.example"}}};
  DomainSpec a;
  a.name = "a.svc.example";
  DomainSpec b;
  b.name = "b.svc.example";
  spec.domains = {a, b};
  return spec;
}

TEST(Ecosystem, ClusterCreatesServersAndDns) {
  Ecosystem eco = make_eco();
  const auto ips = eco.add_cluster(basic_cluster());
  ASSERT_EQ(ips.size(), 2u);
  EXPECT_EQ(eco.server_count(), 2u);

  const Server* server = eco.server_at(ips[0]);
  ASSERT_NE(server, nullptr);
  EXPECT_EQ(server->operator_name(), "op");
  EXPECT_TRUE(server->serves("a.svc.example"));
  EXPECT_TRUE(server->serves("b.svc.example"));
  EXPECT_FALSE(server->serves("c.svc.example"));
  EXPECT_EQ(server->respond("a.svc.example"), 200);
  EXPECT_EQ(server->respond("other.example"), 421);

  const auto cert = server->certificate_for("a.svc.example");
  ASSERT_NE(cert, nullptr);
  EXPECT_TRUE(cert->covers("b.svc.example"));
  EXPECT_EQ(server->certificate_for("unknown.example"), nullptr);

  dns::QueryContext ctx;
  const auto answer = eco.authority().query("a.svc.example", ctx);
  ASSERT_TRUE(answer.ok);
  EXPECT_FALSE(answer.addresses.empty());
}

TEST(Ecosystem, AsDatabaseCoversAllocatedIps) {
  Ecosystem eco = make_eco();
  const auto ips = eco.add_cluster(basic_cluster());
  const auto as_info = eco.as_database().lookup(ips[0]);
  ASSERT_TRUE(as_info.has_value());
  EXPECT_EQ(as_info->name, "TEST-AS");
  EXPECT_EQ(as_info->asn, 64500u);
}

TEST(Ecosystem, AllocationsAreUnique) {
  Ecosystem eco = make_eco();
  std::set<net::IpAddress> seen;
  for (int i = 0; i < 20; ++i) {
    ClusterSpec spec = basic_cluster();
    spec.domains[0].name = "a" + std::to_string(i) + ".svc.example";
    spec.domains[1].name = "b" + std::to_string(i) + ".svc.example";
    spec.spread_slash24 = (i % 3 == 0);
    for (const auto& ip : eco.add_cluster(spec)) {
      EXPECT_TRUE(seen.insert(ip).second) << ip.to_string();
    }
  }
}

TEST(Ecosystem, SpreadAllocationUsesDistinctSlash24s) {
  Ecosystem eco = make_eco();
  ClusterSpec spec = basic_cluster();
  spec.ip_count = 4;
  spec.spread_slash24 = true;
  const auto ips = eco.add_cluster(spec);
  std::set<net::IpAddress> subnets;
  for (const auto& ip : ips) subnets.insert(ip.slash24());
  EXPECT_EQ(subnets.size(), 4u);
}

TEST(Ecosystem, SequentialAllocationSharesSlash24) {
  Ecosystem eco = make_eco();
  ClusterSpec spec = basic_cluster();
  spec.ip_count = 8;
  const auto ips = eco.add_cluster(spec);
  std::set<net::IpAddress> subnets;
  for (const auto& ip : ips) subnets.insert(ip.slash24());
  EXPECT_EQ(subnets.size(), 1u);  // the paper's "same /24" observation
}

TEST(Ecosystem, ServesOnRestrictsVirtualHosts) {
  Ecosystem eco = make_eco();
  ClusterSpec spec = basic_cluster();
  spec.domains[1].serves_on = {1};  // b only on the second IP
  const auto ips = eco.add_cluster(spec);
  EXPECT_TRUE(eco.server_at(ips[0])->serves("a.svc.example"));
  EXPECT_FALSE(eco.server_at(ips[0])->serves("b.svc.example"));
  EXPECT_TRUE(eco.server_at(ips[1])->serves("b.svc.example"));
}

TEST(Ecosystem, DnsPoolSubsets) {
  Ecosystem eco = make_eco();
  ClusterSpec spec = basic_cluster();
  spec.ip_count = 4;
  spec.domains[0].dns_pool = {0, 1};
  spec.domains[1].dns_pool = {2, 3};
  const auto ips = eco.add_cluster(spec);
  dns::QueryContext ctx;
  const auto answer_a = eco.authority().query("a.svc.example", ctx);
  ASSERT_TRUE(answer_a.ok);
  EXPECT_EQ(answer_a.addresses[0], ips[0]);
  const auto answer_b = eco.authority().query("b.svc.example", ctx);
  EXPECT_EQ(answer_b.addresses[0], ips[2]);
}

TEST(Ecosystem, CertGroupOverride) {
  Ecosystem eco = make_eco();
  ClusterSpec spec = basic_cluster();
  spec.certs = {
      {"CA", {"*.svc.example"}},
      {"CA", {"b.svc.example"}},
  };
  spec.domains[1].cert_group = 1;
  const auto ips = eco.add_cluster(spec);
  const auto cert_b = eco.server_at(ips[0])->certificate_for("b.svc.example");
  ASSERT_NE(cert_b, nullptr);
  EXPECT_FALSE(cert_b->covers("a.svc.example"));
}

TEST(Ecosystem, CertGroupOverrideMustCover) {
  Ecosystem eco = make_eco();
  ClusterSpec spec = basic_cluster();
  spec.certs = {
      {"CA", {"*.svc.example"}},
      {"CA", {"unrelated.example"}},
  };
  spec.domains[1].cert_group = 1;
  EXPECT_THROW(eco.add_cluster(spec), std::invalid_argument);
}

TEST(Ecosystem, UncoveredDomainThrows) {
  Ecosystem eco = make_eco();
  ClusterSpec spec = basic_cluster();
  spec.domains[0].name = "outside.other";
  EXPECT_THROW(eco.add_cluster(spec), std::invalid_argument);
}

TEST(Ecosystem, UnknownAsThrows) {
  Ecosystem eco = make_eco();
  ClusterSpec spec = basic_cluster();
  spec.as_name = "NOPE";
  EXPECT_THROW(eco.add_cluster(spec), std::invalid_argument);
}

TEST(Ecosystem, OriginFrameAnnouncement) {
  Ecosystem eco = make_eco();
  ClusterSpec spec = basic_cluster();
  spec.announce_origin_frame = true;
  const auto ips = eco.add_cluster(spec);
  const auto& frame = eco.server_at(ips[0])->origin_frame();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->origins.size(), 2u);
  EXPECT_EQ(frame->origins[0], "https://a.svc.example");
}

TEST(Ecosystem, ExpiredCertificatesAreIssuedWithWindow) {
  Ecosystem eco = make_eco();
  ClusterSpec spec = basic_cluster();
  spec.certs[0].not_after = util::hours(1);
  const auto ips = eco.add_cluster(spec);
  const auto cert = eco.server_at(ips[0])->certificate_for("a.svc.example");
  ASSERT_NE(cert, nullptr);
  EXPECT_TRUE(cert->valid_at(util::minutes(30)));
  EXPECT_FALSE(cert->valid_at(util::days(1)));
}

TEST(Ecosystem, IdleTimeoutAndH2Flag) {
  Ecosystem eco = make_eco();
  ClusterSpec spec = basic_cluster();
  spec.idle_timeout = util::seconds(90);
  spec.h2_enabled = false;
  const auto ips = eco.add_cluster(spec);
  EXPECT_EQ(eco.server_at(ips[0])->idle_timeout(), util::seconds(90));
  EXPECT_FALSE(eco.server_at(ips[0])->h2_enabled());
}

// ---------------------------------------------------------------- catalog

TEST(Catalog, InstallsPaperDomains) {
  Ecosystem eco{42};
  ServiceCatalog catalog{eco, 42};
  dns::QueryContext ctx;
  for (const char* domain :
       {"www.google-analytics.com", "www.googletagmanager.com",
        "connect.facebook.net", "www.facebook.com", "static.hotjar.com",
        "c0.wp.com", "stats.wp.com", "static.klaviyo.com",
        "fast.a.klaviyo.com", "pagead2.googlesyndication.com",
        "adservice.google.com", "fonts.gstatic.com", "www.google.de",
        "sync.1rx.io", "alb.reddit.com", "mc.yandex.ru"}) {
    EXPECT_TRUE(eco.authority().query(domain, ctx).ok) << domain;
  }
}

TEST(Catalog, KlaviyoCertsAreDisjunct) {
  Ecosystem eco{42};
  ServiceCatalog catalog{eco, 42};
  const auto static_cert = eco.certificate_of("static.klaviyo.com");
  const auto fast_cert = eco.certificate_of("fast.a.klaviyo.com");
  ASSERT_NE(static_cert, nullptr);
  ASSERT_NE(fast_cert, nullptr);
  EXPECT_FALSE(static_cert->covers("fast.a.klaviyo.com"));
  EXPECT_FALSE(fast_cert->covers("static.klaviyo.com"));
  EXPECT_EQ(static_cert->issuer_organization(), std::string("Let's Encrypt"));
}

TEST(Catalog, GoogleCertTopology) {
  Ecosystem eco{42};
  ServiceCatalog catalog{eco, 42};
  // GT's cert covers GA (the IP cause), the ads cert does not cover
  // adservice (the CERT case), gstatic covers google.de (Table 12 prev).
  EXPECT_TRUE(eco.certificate_of("www.googletagmanager.com")
                  ->covers("www.google-analytics.com"));
  EXPECT_FALSE(eco.certificate_of("pagead2.googlesyndication.com")
                   ->covers("adservice.google.com"));
  EXPECT_TRUE(
      eco.certificate_of("www.gstatic.com")->covers("www.google.de"));
  EXPECT_FALSE(
      eco.certificate_of("fonts.gstatic.com")->covers("www.google.de"));
  EXPECT_FALSE(eco.certificate_of("fonts.googleapis.com")
                   ->covers("fonts.gstatic.com"));
}

TEST(Catalog, FacebookAsymmetricServing) {
  Ecosystem eco{42};
  ServiceCatalog catalog{eco, 42};
  dns::QueryContext ctx;
  const auto wfb = eco.authority().query("www.facebook.com", ctx);
  const auto cfb = eco.authority().query("connect.facebook.net", ctx);
  ASSERT_TRUE(wfb.ok);
  ASSERT_TRUE(cfb.ok);
  // CFB's script is served on WFB's IPs...
  EXPECT_TRUE(eco.server_at(wfb.addresses[0])->serves("connect.facebook.net"));
  // ...but not vice versa (the paper's §5.3.1 finding).
  EXPECT_FALSE(eco.server_at(cfb.addresses[0])->serves("www.facebook.com"));
}

TEST(Catalog, GenericServicesFollowPatternMix) {
  Ecosystem eco{42};
  ServiceCatalog catalog{eco, 42, 200};
  const auto& generics = catalog.generic_services();
  ASSERT_EQ(generics.size(), 200u);
  std::map<GenericPattern, int> counts;
  for (const auto& service : generics) ++counts[service.pattern];
  EXPECT_GT(counts[GenericPattern::kClean], counts[GenericPattern::kUnsyncLb]);
  EXPECT_GT(counts[GenericPattern::kUnsyncLb],
            counts[GenericPattern::kCertSharded]);
  // Popular services are never cert-sharded.
  for (std::size_t i = 0; i < 64; ++i) {
    EXPECT_NE(generics[i].pattern, GenericPattern::kCertSharded) << i;
  }
}

TEST(Catalog, EmbedsProduceResources) {
  Ecosystem eco{42};
  ServiceCatalog catalog{eco, 42};
  util::Rng rng{5};
  const Resource gtm = catalog.google_tag_manager(rng);
  EXPECT_FALSE(gtm.domain.empty());
  const auto fonts = catalog.google_fonts(rng, true);
  ASSERT_GE(fonts.size(), 2u);
  bool has_preconnect = false;
  for (const Resource& r : fonts) has_preconnect |= r.preconnect;
  EXPECT_TRUE(has_preconnect);
}

// ---------------------------------------------------------------- sitegen

TEST(SiteGen, DeterministicPerRank) {
  Ecosystem eco1{42};
  ServiceCatalog catalog1{eco1, 42};
  SiteUniverse universe1{eco1, catalog1};
  Ecosystem eco2{42};
  ServiceCatalog catalog2{eco2, 42};
  SiteUniverse universe2{eco2, catalog2};

  const Website a = universe1.generate_site(17);
  const Website b = universe2.generate_site(17);
  EXPECT_EQ(a.url, b.url);
  EXPECT_EQ(a.landing_domain, b.landing_domain);
  EXPECT_EQ(a.resources.size(), b.resources.size());
  EXPECT_EQ(total_requests(a), total_requests(b));
  // Same site on repeated generation.
  EXPECT_EQ(total_requests(universe1.generate_site(17)), total_requests(a));
}

TEST(SiteGen, SiteHasResolvableLandingDomain) {
  Ecosystem eco{42};
  ServiceCatalog catalog{eco, 42};
  SiteUniverse universe{eco, catalog};
  const Website site = universe.generate_site(3);
  // Generated sites publish their DNS records through a per-site overlay
  // (the deployment), not the shared authority.
  ASSERT_NE(site.deployment, nullptr);
  dns::QueryContext ctx;
  EXPECT_TRUE(eco.authority()
                  .query(site.landing_domain, ctx, &site.deployment->records)
                  .ok);
  EXPECT_FALSE(eco.authority().query(site.landing_domain, ctx).ok);
  EXPECT_EQ(site.url, "https://" + site.landing_domain);
}

TEST(SiteGen, TopSitesEmbedMoreThanTailSites) {
  Ecosystem eco{42};
  ServiceCatalog catalog{eco, 42};
  UniverseConfig config = UniverseConfig::defaults();
  config.top_rank = 100;
  config.tail_rank = 1000;
  SiteUniverse universe{eco, catalog, config};
  std::size_t top_requests = 0;
  std::size_t tail_requests = 0;
  for (std::size_t i = 0; i < 60; ++i) {
    top_requests += total_requests(universe.generate_site(i));
    tail_requests += total_requests(universe.generate_site(5000 + i));
  }
  EXPECT_GT(top_requests, tail_requests);
}

TEST(SiteGen, UnreachableIsDeterministicAndRare) {
  Ecosystem eco{42};
  ServiceCatalog catalog{eco, 42};
  SiteUniverse universe{eco, catalog};
  int unreachable = 0;
  for (std::size_t i = 0; i < 1000; ++i) {
    EXPECT_EQ(universe.unreachable(i), universe.unreachable(i));
    if (universe.unreachable(i)) ++unreachable;
  }
  EXPECT_GT(unreachable, 0);
  EXPECT_LT(unreachable, 100);
}

TEST(SiteGen, GeoVariantsSelectByRegion) {
  Resource r;
  r.domain = "www.google.com";
  r.geo_variants["eu"] = "www.google.de";
  EXPECT_EQ(r.domain_for("eu"), "www.google.de");
  EXPECT_EQ(r.domain_for("us"), "www.google.com");
  EXPECT_EQ(r.domain_for("apac"), "www.google.com");
}

TEST(SiteGen, TotalRequestsCountsTreeNotPreconnects) {
  Website site;
  site.landing_domain = "x";
  Resource parent;
  parent.domain = "a";
  Resource child;
  child.domain = "b";
  Resource pre;
  pre.domain = "c";
  pre.preconnect = true;
  parent.children.push_back(child);
  site.resources.push_back(parent);
  site.resources.push_back(pre);
  EXPECT_EQ(total_requests(site), 3u);  // document + parent + child
}

}  // namespace
}  // namespace h2r::web

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "browser/browser.hpp"
#include "browser/crawl.hpp"
#include "core/classify.hpp"
#include "dns/vantage.hpp"
#include "obs/observer.hpp"
#include "web/catalog.hpp"
#include "web/ecosystem.hpp"

namespace h2r::browser {
namespace {

net::Prefix pfx(const char* s) { return net::Prefix::parse(s).value(); }

/// A small fixture world: one operator with two domains on one cert, and a
/// site landing page.
class BrowserTest : public ::testing::Test {
 protected:
  BrowserTest() : eco_(5) {
    eco_.register_as("T-AS", 64501, pfx("10.20.0.0/16"));

    web::ClusterSpec svc;
    svc.operator_name = "svc";
    svc.as_name = "T-AS";
    svc.ip_count = 4;
    svc.certs = {{"CA", {"*.svc.test"}}};
    for (const char* name : {"a.svc.test", "b.svc.test"}) {
      web::DomainSpec d;
      d.name = name;
      d.lb.policy = dns::LbPolicy::kStatic;
      d.lb.answer_count = 2;
      svc.domains.push_back(d);
    }
    svc_ips_ = eco_.add_cluster(svc);

    web::ClusterSpec site;
    site.operator_name = "site";
    site.as_name = "T-AS";
    site.ip_count = 1;
    site.certs = {{"CA", {"www.site.test", "site.test"}}};
    web::DomainSpec www;
    www.name = "www.site.test";
    site.domains.push_back(www);
    eco_.add_cluster(site);
  }

  web::Website site_with(std::vector<web::Resource> resources) {
    web::Website site;
    site.url = "https://www.site.test";
    site.landing_domain = "www.site.test";
    site.resources = std::move(resources);
    return site;
  }

  web::Resource res(const char* domain, fetch::Destination dest,
                    bool anonymous = false, util::SimTime delay = 10) {
    web::Resource r;
    r.domain = domain;
    r.path = "/r";
    r.destination = dest;
    r.crossorigin_anonymous = anonymous;
    r.start_delay = delay;
    return r;
  }

  PageLoadResult load(const web::Website& site, BrowserOptions options = {}) {
    dns::RecursiveResolver resolver{dns::standard_vantage_points()[0],
                                    &eco_.authority()};
    Browser chrome{eco_, resolver, options, 11};
    return chrome.load(site, util::days(1));
  }

  web::Ecosystem eco_;
  std::vector<net::IpAddress> svc_ips_;
};

TEST_F(BrowserTest, DocumentOnlyPageOpensOneConnection) {
  const auto page = load(site_with({}));
  EXPECT_EQ(page.connections_opened, 1u);
  ASSERT_EQ(page.observation.connections.size(), 1u);
  const auto& conn = page.observation.connections[0];
  EXPECT_EQ(conn.initial_domain, "www.site.test");
  ASSERT_EQ(conn.requests.size(), 1u);
  EXPECT_EQ(conn.requests[0].status, 200);
}

TEST_F(BrowserTest, SameHostRequestsShareTheGroupConnection) {
  const auto page = load(site_with({
      res("a.svc.test", fetch::Destination::kScript),
      res("a.svc.test", fetch::Destination::kImage, false, 200),
      res("a.svc.test", fetch::Destination::kImage, false, 400),
  }));
  EXPECT_EQ(page.connections_opened, 2u);  // document + one for a.svc.test
  EXPECT_EQ(page.group_reuses, 2u);
}

TEST_F(BrowserTest, IpPoolingCoalescesCoveredDomains) {
  // a and b share the pool and the certificate; with static LB both
  // resolve to the same first address -> the b request rides a's session.
  const auto page = load(site_with({
      res("a.svc.test", fetch::Destination::kScript),
      res("b.svc.test", fetch::Destination::kImage, false, 500),
  }));
  EXPECT_EQ(page.connections_opened, 2u);
  EXPECT_EQ(page.alias_reuses, 1u);
  const auto cls = core::classify_site(page.observation,
                                       {core::DurationModel::kExact});
  EXPECT_TRUE(cls.findings.empty());
}

TEST_F(BrowserTest, IpPoolingCanBeDisabled) {
  BrowserOptions options;
  options.enable_ip_pooling = false;
  const auto page = load(site_with({
                             res("a.svc.test", fetch::Destination::kScript),
                             res("b.svc.test", fetch::Destination::kImage,
                                 false, 500),
                         }),
                         options);
  EXPECT_EQ(page.connections_opened, 3u);
  EXPECT_EQ(page.alias_reuses, 0u);
  // Without pooling the second connection is redundant (CRED: same IP,
  // covering cert).
  const auto cls = core::classify_site(page.observation,
                                       {core::DurationModel::kExact});
  EXPECT_EQ(cls.redundant_connections(), 1u);
}

TEST_F(BrowserTest, PrivacyModeSplitsThePool) {
  // Credentialed image + anonymous font to the same host: Fetch forbids
  // sharing -> two connections (the CRED cause).
  const auto page = load(site_with({
      res("a.svc.test", fetch::Destination::kImage),
      res("a.svc.test", fetch::Destination::kFont, true, 300),
  }));
  EXPECT_EQ(page.connections_opened, 3u);
  const auto cls = core::classify_site(page.observation,
                                       {core::DurationModel::kExact});
  ASSERT_EQ(cls.findings.size(), 1u);
  EXPECT_EQ(cls.findings[0].causes, std::set<core::Cause>{core::Cause::kCred});
}

TEST_F(BrowserTest, PatchedBrowserIgnoresPrivacyMode) {
  BrowserOptions options;
  options.follow_fetch_credentials = false;  // the paper's patched build
  const auto page = load(site_with({
                             res("a.svc.test", fetch::Destination::kImage),
                             res("a.svc.test", fetch::Destination::kFont,
                                 true, 300),
                         }),
                         options);
  EXPECT_EQ(page.connections_opened, 2u);
  const auto cls = core::classify_site(page.observation,
                                       {core::DurationModel::kExact});
  EXPECT_TRUE(cls.findings.empty());
}

TEST_F(BrowserTest, PreconnectOpensConnectionWithoutRequest) {
  web::Resource pre;
  pre.domain = "a.svc.test";
  pre.preconnect = true;
  const auto page = load(site_with({pre}));
  EXPECT_EQ(page.connections_opened, 2u);
  bool found_empty = false;
  for (const auto& conn : page.observation.connections) {
    if (conn.initial_domain == "a.svc.test") {
      EXPECT_TRUE(conn.requests.empty());
      found_empty = true;
    }
  }
  EXPECT_TRUE(found_empty);
}

TEST_F(BrowserTest, FaultyPreconnectCausesCredRedundancy) {
  // preconnect without crossorigin (credentialed) + anonymous font.
  web::Resource pre;
  pre.domain = "a.svc.test";
  pre.preconnect = true;
  const auto page = load(site_with({
      pre,
      res("a.svc.test", fetch::Destination::kFont, true, 100),
  }));
  const auto cls = core::classify_site(page.observation,
                                       {core::DurationModel::kExact});
  ASSERT_EQ(cls.redundant_connections(), 1u);
  EXPECT_EQ(cls.findings[0].causes, std::set<core::Cause>{core::Cause::kCred});
}

TEST_F(BrowserTest, MisdirectedRequestRetriesAndExcludes) {
  // Make b.svc.test served only on IPs {2,3} while announced on {0,1}:
  // pooling routes it onto a's session (IP 0) -> 421 -> retry.
  web::ClusterSpec svc;
  svc.operator_name = "svc2";
  svc.as_name = "T-AS";
  svc.ip_count = 2;
  svc.certs = {{"CA", {"*.svc2.test"}}};
  web::DomainSpec a;
  a.name = "a.svc2.test";
  a.dns_pool = {0};
  a.serves_on = {0};
  web::DomainSpec b;
  b.name = "b.svc2.test";
  b.dns_pool = {0, 1};
  b.serves_on = {1};  // NOT served on IP 0
  svc.domains = {a, b};
  eco_.add_cluster(svc);

  const auto page = load(site_with({
      res("a.svc2.test", fetch::Destination::kScript),
      res("b.svc2.test", fetch::Destination::kImage, false, 500),
  }));
  EXPECT_EQ(page.misdirected_retries, 1u);
  // The 421 is recorded on a's session and b got its own connection.
  bool excluded = false;
  for (const auto& conn : page.observation.connections) {
    if (conn.initial_domain == "a.svc2.test") {
      excluded = conn.excludes("b.svc2.test");
    }
  }
  EXPECT_TRUE(excluded);
  // The classifier must NOT count the 421'd pair as redundant.
  const auto cls = core::classify_site(page.observation,
                                       {core::DurationModel::kExact});
  for (const auto& finding : cls.findings) {
    const auto& conn = page.observation.connections[finding.connection_index];
    EXPECT_NE(conn.initial_domain, "b.svc2.test");
  }
}

TEST_F(BrowserTest, H1OnlyServersProduceH1Entries) {
  web::ClusterSpec legacy;
  legacy.operator_name = "legacy";
  legacy.as_name = "T-AS";
  legacy.ip_count = 1;
  legacy.h2_enabled = false;
  legacy.certs = {{"CA", {"old.legacy.test"}}};
  web::DomainSpec d;
  d.name = "old.legacy.test";
  legacy.domains.push_back(d);
  eco_.add_cluster(legacy);

  const auto page = load(site_with({
      res("old.legacy.test", fetch::Destination::kImage),
  }));
  EXPECT_EQ(page.h1_entries.size(), 1u);
  EXPECT_EQ(page.h1_entries[0].http_version, "http/1.1");
  // No h2 connection for the legacy host.
  for (const auto& conn : page.observation.connections) {
    EXPECT_NE(conn.initial_domain, "old.legacy.test");
  }
}

TEST_F(BrowserTest, IdleServersCloseConnections) {
  web::ClusterSpec closing;
  closing.operator_name = "closing";
  closing.as_name = "T-AS";
  closing.ip_count = 1;
  closing.idle_timeout = util::seconds(60);
  closing.certs = {{"CA", {"c.closing.test"}}};
  web::DomainSpec d;
  d.name = "c.closing.test";
  closing.domains.push_back(d);
  eco_.add_cluster(closing);

  BrowserOptions options;
  options.post_load_wait = util::seconds(300);
  const auto page = load(site_with({
                             res("c.closing.test", fetch::Destination::kImage),
                         }),
                         options);
  bool closed = false;
  for (const auto& conn : page.observation.connections) {
    if (conn.initial_domain == "c.closing.test") {
      closed = conn.closed_at.has_value();
      if (closed) {
        EXPECT_GT(*conn.closed_at, conn.opened_at + util::seconds(59));
      }
    }
  }
  EXPECT_TRUE(closed);
}

TEST_F(BrowserTest, OriginFrameEnablesCrossIpReuse) {
  // Two domains on disjoint DNS pools: without ORIGIN support this is an
  // IP-redundant pair; with it the browser reroutes onto the session.
  web::ClusterSpec svc;
  svc.operator_name = "of";
  svc.as_name = "T-AS";
  svc.ip_count = 2;
  svc.announce_origin_frame = true;
  svc.certs = {{"CA", {"*.of.test"}}};
  web::DomainSpec a;
  a.name = "a.of.test";
  a.dns_pool = {0};
  web::DomainSpec b;
  b.name = "b.of.test";
  b.dns_pool = {1};
  svc.domains = {a, b};
  eco_.add_cluster(svc);

  const auto resources = std::vector<web::Resource>{
      res("a.of.test", fetch::Destination::kScript),
      res("b.of.test", fetch::Destination::kImage, false, 500),
  };

  const auto chromium = load(site_with(resources));
  const auto cls_chromium = core::classify_site(
      chromium.observation, {core::DurationModel::kExact});
  EXPECT_EQ(cls_chromium.count_cause(core::Cause::kIp), 1u);
  EXPECT_EQ(chromium.origin_frame_reuses, 0u);

  BrowserOptions options;
  options.support_origin_frame = true;
  const auto rfc8336 = load(site_with(resources), options);
  EXPECT_EQ(rfc8336.origin_frame_reuses, 1u);
  const auto cls_origin = core::classify_site(rfc8336.observation,
                                              {core::DurationModel::kExact});
  EXPECT_EQ(cls_origin.count_cause(core::Cause::kIp), 0u);
}

TEST_F(BrowserTest, ChildrenLoadAfterParents) {
  web::Resource parent = res("a.svc.test", fetch::Destination::kScript);
  parent.children.push_back(
      res("b.svc.test", fetch::Destination::kImage, false, 50));
  const auto page = load(site_with({parent}));
  // b's request must start after a's finished.
  util::SimTime a_end = 0;
  util::SimTime b_start = 0;
  for (const auto& conn : page.observation.connections) {
    for (const auto& req : conn.requests) {
      if (req.domain == "a.svc.test") a_end = req.finished_at;
      if (req.domain == "b.svc.test") b_start = req.started_at;
    }
  }
  ASSERT_GT(a_end, 0);
  EXPECT_GE(b_start, a_end + 50);
}

TEST_F(BrowserTest, NetLogContainsLifecycleEvents) {
  const auto page = load(site_with({res("a.svc.test",
                                        fetch::Destination::kScript)}));
  bool has_dns = false;
  bool has_created = false;
  bool has_request = false;
  for (const auto& event : page.log.events()) {
    has_dns |= event.type == netlog::EventType::kDnsResolved;
    has_created |= event.type == netlog::EventType::kSessionCreated;
    has_request |= event.type == netlog::EventType::kRequestFinished;
  }
  EXPECT_TRUE(has_dns);
  EXPECT_TRUE(has_created);
  EXPECT_TRUE(has_request);
}

TEST_F(BrowserTest, LoadIsDeterministic) {
  const auto site = site_with({
      res("a.svc.test", fetch::Destination::kScript),
      res("b.svc.test", fetch::Destination::kFont, true, 200),
  });
  const auto page1 = load(site);
  const auto page2 = load(site);
  EXPECT_EQ(page1.connections_opened, page2.connections_opened);
  EXPECT_EQ(page1.observation.connections.size(),
            page2.observation.connections.size());
  for (std::size_t i = 0; i < page1.observation.connections.size(); ++i) {
    EXPECT_EQ(page1.observation.connections[i].endpoint,
              page2.observation.connections[i].endpoint);
  }
}

// ------------------------------------------------------------------ crawl

TEST_F(BrowserTest, ExpiredCertificateMakesSiteUnreachable) {
  web::ClusterSpec stale;
  stale.operator_name = "stale";
  stale.as_name = "T-AS";
  stale.ip_count = 1;
  stale.certs = {{"CA", {"www.stale.test"}, 0, util::hours(1)}};
  web::DomainSpec d;
  d.name = "www.stale.test";
  stale.domains.push_back(d);
  eco_.add_cluster(stale);

  web::Website site;
  site.url = "https://www.stale.test";
  site.landing_domain = "www.stale.test";
  const auto page = load(site);
  // Certificate errors are NOT ignored (paper §4.2.2): the navigation
  // fails and the site counts as unreachable.
  EXPECT_FALSE(page.reachable);
  EXPECT_GT(page.failed_fetches, 0u);
}

TEST_F(BrowserTest, VisitReusesConnectionsAcrossPages) {
  const web::Website site = site_with({
      res("a.svc.test", fetch::Destination::kScript),
      res("b.svc.test", fetch::Destination::kImage, false, 200),
  });
  // Internal page reuses the same hosts.
  const std::vector<std::vector<web::Resource>> internal = {
      {res("a.svc.test", fetch::Destination::kImage, false, 30)},
      {res("b.svc.test", fetch::Destination::kImage, false, 30)},
  };
  dns::RecursiveResolver resolver{dns::standard_vantage_points()[0],
                                  &eco_.authority()};
  Browser chrome{eco_, resolver, BrowserOptions{}, 11};
  const VisitResult visit = chrome.visit(site, internal, util::days(1));
  ASSERT_EQ(visit.pages.size(), 3u);
  EXPECT_GT(visit.pages[0].connections_opened, 0u);
  EXPECT_EQ(visit.pages[1].connections_opened, 0u);  // warm pools
  EXPECT_EQ(visit.pages[2].connections_opened, 0u);
  EXPECT_GT(visit.pages[1].requests, 0u);
  // One cumulative observation covering all pages' requests.
  std::uint64_t total_requests = 0;
  for (const auto& conn : visit.observation.connections) {
    total_requests += conn.requests.size();
  }
  std::uint64_t per_page = 0;
  for (const auto& page : visit.pages) per_page += page.requests;
  EXPECT_EQ(total_requests, per_page);
  // Pages are ordered in time.
  EXPECT_LT(visit.pages[0].finished_at, visit.pages[1].started_at);
}

TEST_F(BrowserTest, VisitIdleTimeoutForcesReconnectBetweenPages) {
  web::ClusterSpec closing;
  closing.operator_name = "closing2";
  closing.as_name = "T-AS";
  closing.ip_count = 1;
  closing.idle_timeout = util::seconds(20);
  closing.certs = {{"CA", {"c.closing2.test"}}};
  web::DomainSpec d;
  d.name = "c.closing2.test";
  closing.domains.push_back(d);
  eco_.add_cluster(closing);

  const web::Website site = site_with({
      res("c.closing2.test", fetch::Destination::kImage),
  });
  const std::vector<std::vector<web::Resource>> internal = {
      {res("c.closing2.test", fetch::Destination::kImage, false, 30)},
  };
  dns::RecursiveResolver resolver{dns::standard_vantage_points()[0],
                                  &eco_.authority()};
  Browser chrome{eco_, resolver, BrowserOptions{}, 11};
  // Dwell longer than the 20s idle timeout: the server closes the
  // connection between pages and the internal page must reconnect.
  const VisitResult visit =
      chrome.visit(site, internal, util::days(1), util::seconds(60));
  ASSERT_EQ(visit.pages.size(), 2u);
  EXPECT_EQ(visit.pages[1].connections_opened, 1u);
}

TEST(SiteGen, InternalPagesAreDeterministicAndOnSite) {
  web::Ecosystem eco{42};
  web::ServiceCatalog catalog{eco, 42};
  web::SiteUniverse universe{eco, catalog};
  const auto pages1 = universe.internal_pages(5, 3);
  const auto pages2 = universe.internal_pages(5, 3);
  ASSERT_EQ(pages1.size(), 3u);
  ASSERT_EQ(pages1.size(), pages2.size());
  for (std::size_t p = 0; p < pages1.size(); ++p) {
    ASSERT_EQ(pages1[p].size(), pages2[p].size());
    EXPECT_FALSE(pages1[p].empty());
    for (std::size_t i = 0; i < pages1[p].size(); ++i) {
      EXPECT_EQ(pages1[p][i].domain, pages2[p][i].domain);
      EXPECT_EQ(pages1[p][i].path, pages2[p][i].path);
    }
  }
}

TEST(Crawl, VisitsRangeAndAggregates) {
  web::Ecosystem eco{42};
  web::ServiceCatalog catalog{eco, 42};
  web::SiteUniverse universe{eco, catalog};

  CrawlOptions options;
  options.har_path = true;
  options.har_quirks = har::ExportQuirks::none();
  int sites_seen = 0;
  const CrawlSummary summary = crawl_range(
      universe, 0, 30, options, [&](const SiteResult& site) {
        ++sites_seen;
        if (!site.reachable) return;
        EXPECT_FALSE(site.netlog_observation.site_url.empty());
        // With quirks disabled the HAR path sees the same connections
        // minus request-less preconnects and h1 traffic.
        EXPECT_LE(site.har_observation.connections.size(),
                  site.netlog_observation.connections.size());
      });
  EXPECT_EQ(sites_seen, 30);
  EXPECT_EQ(summary.sites_visited + summary.sites_unreachable, 30u);
  EXPECT_GT(summary.connections_opened, 30u);
}

TEST(Crawl, ParallelMatchesSequential) {
  auto run = [](unsigned threads) {
    web::Ecosystem eco{42};
    web::ServiceCatalog catalog{eco, 42};
    web::SiteUniverse universe{eco, catalog};
    CrawlOptions options;
    options.threads = threads;
    std::vector<std::pair<std::size_t, std::size_t>> conns_per_rank;
    const CrawlSummary summary = crawl_range(
        universe, 0, 40, options, [&](const SiteResult& site) {
          conns_per_rank.emplace_back(
              site.rank, site.netlog_observation.connections.size());
        });
    return std::make_pair(summary.connections_opened, conns_per_rank);
  };
  const auto sequential = run(1);
  const auto parallel = run(4);
  // Every per-site input is derived from (seed, site) alone, so parallel
  // crawls are EXACTLY equal to sequential ones — no tolerance. The full
  // bit-identity contract is pinned in crawl_parallel_test.cpp.
  EXPECT_EQ(sequential.first, parallel.first);
  ASSERT_EQ(sequential.second.size(), parallel.second.size());
  for (std::size_t i = 0; i < sequential.second.size(); ++i) {
    EXPECT_EQ(sequential.second[i].first, parallel.second[i].first);
    EXPECT_EQ(sequential.second[i].second, parallel.second[i].second)
        << "rank " << sequential.second[i].first;
  }
}

TEST(Crawl, SinkReceivesRankOrderInParallelMode) {
  web::Ecosystem eco{42};
  web::ServiceCatalog catalog{eco, 42};
  web::SiteUniverse universe{eco, catalog};
  CrawlOptions options;
  options.threads = 3;
  std::size_t expected = 5;
  crawl_range(universe, 5, 20, options, [&](const SiteResult& site) {
    EXPECT_EQ(site.rank, expected++);
  });
  EXPECT_EQ(expected, 25u);
}

TEST(Crawl, InvalidVantageThrows) {
  // A bad vantage must surface here, on the calling thread, at every
  // thread count — never as std::terminate on a crawl thread.
  web::Ecosystem eco{42};
  web::ServiceCatalog catalog{eco, 42};
  web::SiteUniverse universe{eco, catalog};
  for (const unsigned threads : {1u, 2u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    CrawlOptions options;
    options.threads = threads;
    options.vantage_index = 99;
    EXPECT_THROW(
        crawl_range(universe, 0, 4, options, [](const SiteResult&) {}),
        std::out_of_range);
  }
}

TEST(Crawl, SinkExceptionReachesTheCaller) {
  web::Ecosystem eco{42};
  web::ServiceCatalog catalog{eco, 42};
  web::SiteUniverse universe{eco, catalog};
  CrawlOptions options;
  options.threads = 2;
  EXPECT_THROW(crawl_range(universe, 0, 6, options,
                           [](const SiteResult& site) {
                             if (site.rank == 2) {
                               throw std::runtime_error("sink failed");
                             }
                           }),
               std::runtime_error);
}

TEST(Crawl, RangeRejectsAnObserver) {
  // crawl_range owns the crawl's observer; a caller's would never fire.
  web::Ecosystem eco{42};
  web::ServiceCatalog catalog{eco, 42};
  web::SiteUniverse universe{eco, catalog};
  obs::MetricsObserver observer;
  CrawlOptions options;
  options.observer = &observer;
  EXPECT_THROW(crawl_range(universe, 0, 1, options, [](const SiteResult&) {}),
               std::invalid_argument);
}

TEST(Crawl, RangeIgnoresTargets) {
  // crawl_range visits its whole range; a targets list meant for crawl()
  // must not leave its reorder buffer waiting on a skipped rank.
  web::Ecosystem eco{42};
  web::ServiceCatalog catalog{eco, 42};
  web::SiteUniverse universe{eco, catalog};
  const std::vector<std::size_t> targets = {1, 3};
  CrawlOptions options;
  options.threads = 2;
  options.targets = &targets;
  std::size_t seen = 0;
  const CrawlSummary summary = crawl_range(
      universe, 0, 5, options, [&](const SiteResult&) { ++seen; });
  EXPECT_EQ(seen, 5u);
  EXPECT_EQ(summary.sites_visited + summary.sites_unreachable, 5u);
}

}  // namespace
}  // namespace h2r::browser

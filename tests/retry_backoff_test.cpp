// Pins the browser's resilience policy for injected faults: the exact
// exponential backoff schedule, the retry cap, retry-on-a-new-connection,
// recovery accounting, and two invariants the retry path must NOT break —
// 421 classification (CERT/IP/CRED) and graceful degradation of failed
// sub-resources (the seed's site-abort bug).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "browser/browser.hpp"
#include "core/classify.hpp"
#include "core/observation_json.hpp"
#include "dns/vantage.hpp"
#include "fault/fault.hpp"
#include "json/json.hpp"
#include "netlog/netlog.hpp"
#include "web/ecosystem.hpp"

namespace h2r::browser {
namespace {

net::Prefix pfx(const char* s) { return net::Prefix::parse(s).value(); }

/// Same fixture world as browser_test, plus a cluster whose certificate
/// expired long before the load (a NATURAL failure, never retried).
class RetryBackoffTest : public ::testing::Test {
 protected:
  RetryBackoffTest() : eco_(5) {
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
    eco_.add_cluster(svc);

    web::ClusterSpec site;
    site.operator_name = "site";
    site.as_name = "T-AS";
    site.ip_count = 1;
    site.certs = {{"CA", {"www.site.test", "site.test"}}};
    web::DomainSpec www;
    www.name = "www.site.test";
    site.domains.push_back(www);
    eco_.add_cluster(site);

    web::ClusterSpec stale;
    stale.operator_name = "stale";
    stale.as_name = "T-AS";
    stale.ip_count = 1;
    stale.certs = {{"CA", {"www.stale.test"}, 0, util::hours(1)}};
    web::DomainSpec d;
    d.name = "www.stale.test";
    stale.domains.push_back(d);
    eco_.add_cluster(stale);
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

  PageLoadResult load(const web::Website& site, BrowserOptions options = {},
                      std::uint64_t browser_seed = 11) {
    dns::RecursiveResolver resolver{dns::standard_vantage_points()[0],
                                    &eco_.authority()};
    Browser chrome{eco_, resolver, options, browser_seed};
    return chrome.load(site, util::days(1));
  }

  static std::vector<const netlog::Event*> retries_of(
      const PageLoadResult& page) {
    std::vector<const netlog::Event*> out;
    for (const auto& event : page.log.events()) {
      if (event.type == netlog::EventType::kFetchRetry) out.push_back(&event);
    }
    return out;
  }

  web::Ecosystem eco_;
};

TEST_F(RetryBackoffTest, BackoffSchedulePinnedExactly) {
  // connect refused at rate 1: every attempt fails instantly, so the k-th
  // retry fires backoff_base << k after the previous one:
  //   T+100, T+300 (=+100+200), T+700 (=+300+400).
  BrowserOptions options;
  options.faults.set_rate(fault::FaultKind::kConnectRefused, 1.0);
  const auto page = load(site_with({}), options);

  const util::SimTime t0 = util::days(1);
  const auto retries = retries_of(page);
  ASSERT_EQ(retries.size(), 3u);
  EXPECT_EQ(retries[0]->time, t0 + 100);
  EXPECT_EQ(retries[1]->time, t0 + 300);
  EXPECT_EQ(retries[2]->time, t0 + 700);
  for (std::size_t i = 0; i < retries.size(); ++i) {
    const auto& retry = std::get<netlog::FetchRetry>(retries[i]->payload);
    EXPECT_EQ(retry.host, "www.site.test");
    EXPECT_EQ(retry.attempt, static_cast<int>(i + 1));
    EXPECT_EQ(retry.backoff_ms, 100 << i);
  }

  // 1 document fetch, 3 retries, all refused -> 4 injections, 0 successes.
  EXPECT_FALSE(page.reachable);
  EXPECT_EQ(page.failures.fetch_attempts, 1u);
  EXPECT_EQ(page.failures.retries, 3u);
  EXPECT_EQ(page.failures.retry_successes, 0u);
  EXPECT_EQ(page.failures.failed_fetches, 1u);
  EXPECT_EQ(page.failures.successful_fetches, 0u);
  EXPECT_EQ(page.failures.connect_refused, 4u);
}

TEST_F(RetryBackoffTest, RetryCapIsRespected) {
  BrowserOptions options;
  options.faults.set_rate(fault::FaultKind::kConnectRefused, 1.0);
  options.faults.max_retries = 1;
  const auto page = load(site_with({}), options);
  EXPECT_EQ(retries_of(page).size(), 1u);
  EXPECT_EQ(page.failures.retries, 1u);
  EXPECT_EQ(page.failures.connect_refused, 2u);
  EXPECT_EQ(page.failures.failed_fetches, 1u);

  BrowserOptions no_retries;
  no_retries.faults.set_rate(fault::FaultKind::kConnectRefused, 1.0);
  no_retries.faults.max_retries = 0;
  const auto page0 = load(site_with({}), no_retries);
  EXPECT_TRUE(retries_of(page0).empty());
  EXPECT_EQ(page0.failures.connect_refused, 1u);
}

TEST_F(RetryBackoffTest, BackoffBaseIsConfigurable) {
  BrowserOptions options;
  options.faults.set_rate(fault::FaultKind::kConnectRefused, 1.0);
  options.faults.backoff_base = util::milliseconds(40);
  const auto page = load(site_with({}), options);
  const auto retries = retries_of(page);
  ASSERT_EQ(retries.size(), 3u);
  const util::SimTime t0 = util::days(1);
  EXPECT_EQ(retries[0]->time, t0 + 40);
  EXPECT_EQ(retries[1]->time, t0 + 120);
  EXPECT_EQ(retries[2]->time, t0 + 280);
}

TEST_F(RetryBackoffTest, GoawayRetriesOpenFreshConnections) {
  // GOAWAY at rate 1: every attempt gets a session, loses it mid-stream
  // and retries on a brand-new connection -> 1 + max_retries sessions.
  BrowserOptions options;
  options.faults.set_rate(fault::FaultKind::kGoaway, 1.0);
  const auto page = load(site_with({}), options);
  EXPECT_FALSE(page.reachable);
  EXPECT_EQ(page.connections_opened, 4u);
  EXPECT_EQ(page.failures.goaways, 4u);
  EXPECT_EQ(page.failures.retries, 3u);
  EXPECT_EQ(page.group_reuses, 0u);
  EXPECT_EQ(page.alias_reuses, 0u);
  // Every session died to its GOAWAY: all closed in the netlog.
  std::uint64_t created = 0;
  std::uint64_t closed = 0;
  std::uint64_t goaways = 0;
  for (const auto& event : page.log.events()) {
    created += event.type == netlog::EventType::kSessionCreated;
    closed += event.type == netlog::EventType::kSessionClosed;
    goaways += event.type == netlog::EventType::kSessionGoaway;
  }
  EXPECT_EQ(created, 4u);
  EXPECT_EQ(closed, 4u);
  EXPECT_EQ(goaways, 4u);
}

TEST_F(RetryBackoffTest, RstStreamFailsFetchAndCountsReset) {
  BrowserOptions options;
  options.faults.set_rate(fault::FaultKind::kRstStream, 1.0);
  options.faults.max_retries = 2;
  const auto page = load(site_with({}), options);
  EXPECT_FALSE(page.reachable);
  EXPECT_EQ(page.failures.rst_streams, 3u);  // initial + 2 retries
  EXPECT_EQ(page.failures.retries, 2u);
  std::uint64_t resets = 0;
  for (const auto& event : page.log.events()) {
    resets += event.type == netlog::EventType::kStreamReset;
  }
  EXPECT_EQ(resets, 3u);
  // The reset requests must NOT stitch as successful responses.
  for (const auto& conn : page.observation.connections) {
    for (const auto& req : conn.requests) EXPECT_EQ(req.status, 0);
  }
}

TEST_F(RetryBackoffTest, RetryRescuesFetchUnderPartialFailure) {
  // At rate 0.5 some seed has a failing first attempt rescued by a retry;
  // scan a few deterministic fault seeds for one (each plan is a pure
  // function of its seed, so this never flakes).
  BrowserOptions options;
  options.faults.set_rate(fault::FaultKind::kConnectRefused, 0.5);
  bool rescued = false;
  for (std::uint64_t fault_seed = 1; fault_seed <= 64 && !rescued;
       ++fault_seed) {
    options.faults.seed = fault_seed;
    const auto page = load(site_with({}), options);
    EXPECT_EQ(page.failures.fetch_attempts,
              page.failures.successful_fetches + page.failures.failed_fetches);
    rescued = page.reachable && page.failures.retry_successes == 1 &&
              page.failures.retries > 0;
  }
  EXPECT_TRUE(rescued);
}

TEST_F(RetryBackoffTest, NaturalFailuresAreNeverRetried) {
  // Expired certificate = natural failure: no retry, even with the fault
  // layer armed (DNS answers shift over time, so retrying natural failures
  // would make results time- and retry-policy-dependent).
  BrowserOptions options;
  options.faults.set_rate(fault::FaultKind::kLatencySpike, 0.0);  // inert
  web::Website site;
  site.url = "https://www.stale.test";
  site.landing_domain = "www.stale.test";
  const auto page = load(site, options);
  EXPECT_FALSE(page.reachable);
  EXPECT_TRUE(retries_of(page).empty());
  EXPECT_EQ(page.failures.retries, 0u);
  EXPECT_EQ(page.failures.failed_fetches, 1u);
  EXPECT_EQ(page.failures.total_injected(), 0u);
}

TEST_F(RetryBackoffTest, FailedSubResourceDegradesInsteadOfAborting) {
  // Regression for the seed's site-abort bug: a naturally failing
  // sub-resource (expired cert) used to drop its children from the load.
  // Now the page degrades: the resource fails, its children still load.
  web::Resource broken = res("www.stale.test", fetch::Destination::kScript);
  broken.children.push_back(
      res("a.svc.test", fetch::Destination::kImage, false, 50));
  const auto page = load(site_with({broken}));

  EXPECT_TRUE(page.reachable);  // the document was fine
  EXPECT_EQ(page.failures.degraded_resources, 1u);
  EXPECT_EQ(page.failures.degraded_sites, 1u);
  EXPECT_EQ(page.failures.failed_fetches, 1u);
  EXPECT_EQ(page.failures.fetch_attempts, 3u);  // document + broken + child
  bool child_loaded = false;
  for (const auto& conn : page.observation.connections) {
    for (const auto& req : conn.requests) {
      if (req.domain == "a.svc.test") child_loaded = req.status == 200;
    }
  }
  EXPECT_TRUE(child_loaded);
}

TEST_F(RetryBackoffTest, MisdirectedRetryClassificationSurvivesFaultLayer) {
  // The 421 path (natural refusal -> retry on a dedicated connection with
  // pooling disabled) predates the fault layer. With a fault plan ACTIVE
  // but never firing (only kDnsStale armed, and nothing expires within a
  // load), the whole flow must be byte-identical to the pre-fault
  // behaviour: same exclusion, same CERT/IP/CRED verdicts.
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
  b.serves_on = {1};  // NOT served on IP 0 -> pooled request gets a 421
  svc.domains = {a, b};
  eco_.add_cluster(svc);

  const web::Website site = site_with({
      res("a.svc2.test", fetch::Destination::kScript),
      res("b.svc2.test", fetch::Destination::kImage, false, 500),
  });

  BrowserOptions armed;
  armed.faults.set_rate(fault::FaultKind::kDnsStale, 1.0);
  const auto baseline = load(site);
  const auto page = load(site, armed);

  EXPECT_EQ(page.misdirected_retries, 1u);
  EXPECT_EQ(page.failures.retries, 0u);  // 421 is natural, not injected
  bool excluded = false;
  for (const auto& conn : page.observation.connections) {
    if (conn.initial_domain == "a.svc2.test") {
      excluded = conn.excludes("b.svc2.test");
    }
  }
  EXPECT_TRUE(excluded);
  const auto cls =
      core::classify_site(page.observation, {core::DurationModel::kExact});
  for (const auto& finding : cls.findings) {
    const auto& conn = page.observation.connections[finding.connection_index];
    EXPECT_NE(conn.initial_domain, "b.svc2.test");
  }
  // Bit-identical observation: the armed-but-silent plan changed nothing.
  EXPECT_EQ(json::write(core::to_json(page.observation)),
            json::write(core::to_json(baseline.observation)));
}

}  // namespace
}  // namespace h2r::browser

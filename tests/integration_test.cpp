// End-to-end property tests: for several seeds, build a universe, crawl
// it through both measurement pipelines and check the structural
// invariants that must hold regardless of the random draw.
#include <gtest/gtest.h>

#include <set>

#include "browser/crawl.hpp"
#include "core/classify.hpp"
#include "core/report.hpp"
#include "har/export.hpp"
#include "har/import.hpp"
#include "web/catalog.hpp"
#include "web/sitegen.hpp"

namespace h2r {
namespace {

class CrawlInvariants : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CrawlInvariants, HoldAcrossSeeds) {
  const std::uint64_t seed = GetParam();
  web::Ecosystem eco{seed};
  web::ServiceCatalog catalog{eco, seed};
  web::UniverseConfig config = web::UniverseConfig::defaults();
  config.seed = seed;
  web::SiteUniverse universe{eco, catalog, config};

  browser::CrawlOptions options;
  options.seed = seed + 1;
  options.har_path = true;

  core::Aggregator exact{&eco.as_database()};
  core::Aggregator endless{&eco.as_database()};

  browser::crawl_range(universe, 0, 60, options, [&](const browser::SiteResult&
                                                         site) {
    if (!site.reachable) return;
    const core::SiteObservation& obs = site.netlog_observation;
    const web::Website generated = universe.generate_site(site.rank);

    // Connections are ordered and have sane timestamps.
    for (std::size_t i = 0; i < obs.connections.size(); ++i) {
      const core::ConnectionRecord& conn = obs.connections[i];
      if (i > 0) {
        EXPECT_GE(conn.opened_at, obs.connections[i - 1].opened_at);
      }
      if (conn.closed_at.has_value()) {
        EXPECT_GT(*conn.closed_at, conn.opened_at);
      }
      for (const core::RequestRecord& req : conn.requests) {
        EXPECT_GE(req.started_at, conn.opened_at);
        EXPECT_GE(req.finished_at, req.started_at);
        EXPECT_FALSE(req.domain.empty());
      }
      // Every connected endpoint exists in the ecosystem — or in the
      // site's own deployment overlay (generated first-party clusters are
      // self-contained, not published) — and serves h2.
      const web::Server* server = eco.server_at(conn.endpoint.address);
      if (server == nullptr && generated.deployment != nullptr) {
        server = generated.deployment->server_at(conn.endpoint.address);
      }
      ASSERT_NE(server, nullptr);
      EXPECT_TRUE(server->h2_enabled());
      // The SNI certificate must cover the initial domain (the browser
      // rejects mismatches).
      EXPECT_TRUE(conn.certificate_covers(conn.initial_domain))
          << conn.initial_domain;
    }

    // Classification invariants under every duration model.
    for (const core::DurationModel model :
         {core::DurationModel::kExact, core::DurationModel::kEndless,
          core::DurationModel::kImmediate}) {
      const core::SiteClassification cls = core::classify_site(obs, {model});
      EXPECT_LE(cls.redundant_connections(), cls.total_connections);
      for (const core::ConnectionFinding& finding : cls.findings) {
        EXPECT_FALSE(finding.causes.empty());
        EXPECT_GT(finding.connection_index, 0u);  // first conn never redundant
        for (const auto& [cause, prevs] : finding.reusable_previous_domains) {
          (void)cause;
          EXPECT_FALSE(prevs.empty());
        }
      }
    }

    // Endless sees at least as much redundancy as exact (availability of
    // endless is a superset).
    const auto cls_exact =
        core::classify_site(obs, {core::DurationModel::kExact});
    const auto cls_endless =
        core::classify_site(obs, {core::DurationModel::kEndless});
    EXPECT_GE(cls_endless.redundant_connections(),
              cls_exact.redundant_connections());

    // The HAR path can only lose information, never invent connections.
    EXPECT_LE(site.har_observation.connections.size(),
              obs.connections.size());

    exact.add_site(obs, cls_exact);
    endless.add_site(obs, cls_endless);
  });

  const core::AggregateReport& report = exact.report();
  EXPECT_LE(report.redundant_sites, report.h2_sites);
  EXPECT_LE(report.redundant_connections, report.total_connections);
  for (const auto& [cause, tally] : report.by_cause) {
    (void)cause;
    EXPECT_LE(tally.sites, report.redundant_sites);
    EXPECT_LE(tally.connections, report.redundant_connections);
  }
  // The histogram accounts for every h2 site.
  std::uint64_t hist_total = 0;
  for (const auto& [count, sites] : report.redundant_per_site_histogram) {
    (void)count;
    hist_total += sites;
  }
  EXPECT_EQ(hist_total, report.h2_sites);
  // Issuer share covers every certificate-bearing connection.
  std::uint64_t issuer_conns = 0;
  for (const auto& [issuer, tally] : report.all_issuers) {
    (void)issuer;
    issuer_conns += tally.connections;
  }
  EXPECT_EQ(issuer_conns, report.total_connections);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrawlInvariants,
                         ::testing::Values(1u, 7u, 42u, 1234u, 99999u));

// HAR round-trip without quirks preserves the classification outcome for
// connections that carry requests.
class HarRoundTripFidelity : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HarRoundTripFidelity, QuirklessHarMatchesNetlogForRequestBearers) {
  const std::uint64_t seed = GetParam();
  web::Ecosystem eco{seed};
  web::ServiceCatalog catalog{eco, seed};
  web::UniverseConfig config = web::UniverseConfig::defaults();
  config.seed = seed;
  web::SiteUniverse universe{eco, catalog, config};

  browser::CrawlOptions options;
  options.seed = seed;
  options.har_path = true;
  options.har_quirks = har::ExportQuirks::none();

  browser::crawl_range(universe, 0, 25, options, [&](const browser::SiteResult&
                                                         site) {
    if (!site.reachable) return;
    std::size_t request_bearing = 0;
    for (const auto& conn : site.netlog_observation.connections) {
      if (!conn.requests.empty()) ++request_bearing;
    }
    EXPECT_EQ(site.har_observation.connections.size(), request_bearing);

    // Endpoints and SANs survive the HAR round trip.
    std::set<std::string> netlog_endpoints;
    for (const auto& conn : site.netlog_observation.connections) {
      if (!conn.requests.empty()) {
        netlog_endpoints.insert(conn.endpoint.to_string());
      }
    }
    for (const auto& conn : site.har_observation.connections) {
      EXPECT_TRUE(netlog_endpoints.count(conn.endpoint.to_string()) > 0);
      EXPECT_TRUE(conn.has_certificate);
    }
  });
}

INSTANTIATE_TEST_SUITE_P(Seeds, HarRoundTripFidelity,
                         ::testing::Values(3u, 21u, 555u));

}  // namespace
}  // namespace h2r

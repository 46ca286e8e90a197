// HTTP/3 model tests: Alt-Svc'd servers, protocol propagation through
// NetLog stitching and HAR export, and the paper's socket-id-0 blind spot.
#include <gtest/gtest.h>

#include "browser/browser.hpp"
#include "core/classify.hpp"
#include "dns/vantage.hpp"
#include "har/export.hpp"
#include "har/import.hpp"
#include "util/strings.hpp"
#include "web/ecosystem.hpp"

namespace h2r {
namespace {

class H3Test : public ::testing::Test {
 protected:
  H3Test() : eco_(9) {
    eco_.register_as("T-AS", 64501, net::Prefix::parse("10.30.0.0/16").value());

    web::ClusterSpec quic;
    quic.operator_name = "quic-op";
    quic.as_name = "T-AS";
    quic.ip_count = 2;
    quic.h3_enabled = true;
    quic.certs = {{"CA", {"*.quic.test"}}};
    for (const char* name : {"a.quic.test", "b.quic.test"}) {
      web::DomainSpec d;
      d.name = name;
      d.dns_pool = {name[0] == 'a' ? std::size_t{0} : std::size_t{1}};
      quic.domains.push_back(d);
    }
    eco_.add_cluster(quic);

    web::ClusterSpec site;
    site.operator_name = "site";
    site.as_name = "T-AS";
    site.ip_count = 1;
    site.certs = {{"CA", {"www.site.test"}}};
    web::DomainSpec www;
    www.name = "www.site.test";
    site.domains.push_back(www);
    eco_.add_cluster(site);
  }

  browser::PageLoadResult load(bool enable_http3) {
    web::Website site;
    site.url = "https://www.site.test";
    site.landing_domain = "www.site.test";
    web::Resource script;
    script.domain = "a.quic.test";
    script.destination = fetch::Destination::kScript;
    script.start_delay = 20;
    web::Resource img;
    img.domain = "b.quic.test";
    img.destination = fetch::Destination::kImage;
    img.start_delay = 400;
    site.resources = {script, img};

    dns::RecursiveResolver resolver{dns::standard_vantage_points()[0],
                                    &eco_.authority()};
    browser::BrowserOptions options;
    options.enable_http3 = enable_http3;
    browser::Browser chrome{eco_, resolver, options, 4};
    return chrome.load(site, util::days(1));
  }

  web::Ecosystem eco_;
};

TEST_F(H3Test, DisabledByDefaultEverythingIsH2) {
  const auto page = load(false);
  for (const auto& conn : page.observation.connections) {
    EXPECT_EQ(conn.protocol, "h2");
  }
}

TEST_F(H3Test, AltSvcServersGetH3Sessions) {
  const auto page = load(true);
  int h3 = 0;
  int h2 = 0;
  for (const auto& conn : page.observation.connections) {
    if (conn.protocol == "h3") {
      ++h3;
      EXPECT_EQ(util::base_domain(conn.initial_domain), "quic.test");
    } else {
      ++h2;
    }
  }
  EXPECT_EQ(h3, 2);  // a + b on the QUIC operator
  EXPECT_EQ(h2, 1);  // the landing page
}

TEST_F(H3Test, RedundancyIsProtocolAgnostic) {
  // a and b are on different IPs with a covering cert: cause IP for both
  // the h2-only and the h3 run (the paper's §6 conclusion).
  const auto h2_page = load(false);
  const auto h3_page = load(true);
  const auto cls_h2 = core::classify_site(h2_page.observation,
                                          {core::DurationModel::kExact});
  const auto cls_h3 = core::classify_site(h3_page.observation,
                                          {core::DurationModel::kExact});
  EXPECT_EQ(cls_h2.count_cause(core::Cause::kIp), 1u);
  EXPECT_EQ(cls_h3.count_cause(core::Cause::kIp), 1u);
}

TEST_F(H3Test, HarExportGivesH3SocketZero) {
  const auto page = load(true);
  util::Rng rng{1};
  const har::Log log = har::export_site(page.observation, {},
                                        har::ExportQuirks::none(), rng);
  int h3_entries = 0;
  for (const auto& entry : log.entries) {
    if (entry.http_version == "h3") {
      ++h3_entries;
      EXPECT_EQ(entry.connection_id, 0);  // the paper's §4.2.1 blind spot
    }
  }
  EXPECT_EQ(h3_entries, 2);

  // The importer must drop them (indistinguishable sockets).
  har::ImportStats stats;
  const auto imported = har::import_site(log, &stats);
  EXPECT_EQ(stats.h3_entries, 2u);
  for (const auto& conn : imported.connections) {
    EXPECT_EQ(conn.protocol, "h2");
  }
}

TEST_F(H3Test, QuicHandshakeIsFaster) {
  // QUIC saves one RTT: the h3 session becomes available earlier.
  const auto h2_page = load(false);
  const auto h3_page = load(true);
  auto first_finish = [](const browser::PageLoadResult& page,
                         const char* domain) -> util::SimTime {
    for (const auto& conn : page.observation.connections) {
      if (conn.initial_domain == domain && !conn.requests.empty()) {
        return conn.requests.front().finished_at;
      }
    }
    return 0;
  };
  EXPECT_LT(first_finish(h3_page, "a.quic.test"),
            first_finish(h2_page, "a.quic.test"));
}

TEST_F(H3Test, NetlogCarriesProtocolParam) {
  const auto page = load(true);
  bool saw_h3_param = false;
  for (const auto& event : page.log.events()) {
    if (event.type == netlog::EventType::kSessionCreated &&
        std::get<netlog::SessionCreated>(event.payload).h3) {
      saw_h3_param = true;
    }
  }
  EXPECT_TRUE(saw_h3_param);
}

}  // namespace
}  // namespace h2r

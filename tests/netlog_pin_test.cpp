// Byte pins for the NetLog dump and the stitch round trip.
//
// The browser records typed events; NetLog::to_json renders them as the
// key-sorted string params a Chromium NetLog dump carries. The digests
// below were recorded from the string-param event model, so they pin the
// rendering (flags as "1"/"0", decimal integers, comma-joined lists, and
// exactly when the optional keys `fault`, `via`, goaway `cause` and
// connect-failed `ip` appear). Four fixed configurations, each over
// generated sites plus one hand-built site that draws a 421, together emit
// every event type, and a dump parsed back must stitch to the observation
// the browser stitched from its own log.
#include <gtest/gtest.h>

#include <array>
#include <string>
#include <type_traits>
#include <vector>

#include "browser/browser.hpp"
#include "browser/crawl.hpp"
#include "core/observation_json.hpp"
#include "dns/vantage.hpp"
#include "json/json.hpp"
#include "netlog/netlog.hpp"
#include "netlog/stitch.hpp"
#include "output_digest.hpp"
#include "web/catalog.hpp"
#include "web/sitegen.hpp"

namespace h2r::netlog {
namespace {

// A page result carries its whole NetLog; returning or storing one must
// move it, never copy it.
static_assert(!std::is_copy_constructible_v<browser::PageLoadResult>);
static_assert(!std::is_copy_constructible_v<browser::VisitResult>);
static_assert(!std::is_copy_constructible_v<browser::SiteResult>);
static_assert(std::is_nothrow_move_constructible_v<browser::PageLoadResult>);

constexpr std::uint64_t kSeed = 42;
constexpr std::size_t kSites = 24;

struct PinCase {
  const char* name;
  /// Every cluster announces RFC 8336 ORIGIN frames.
  bool origin_universe = false;
  browser::BrowserOptions options;
  const char* sha256;
};

std::vector<PinCase> pin_cases() {
  std::vector<PinCase> cases(4);
  cases[0].name = "default";
  cases[0].sha256 =
      "48e08ecdd70cb3db5cbc4d32fe6df9c7b933ea7377287a08b24f7e7fe301a287";

  cases[1].name = "origin_frame+http3";
  cases[1].origin_universe = true;
  cases[1].options.support_origin_frame = true;
  cases[1].options.enable_http3 = true;
  cases[1].sha256 =
      "9ec268cbe6e68af723cd3e72600d96a5e83324d4b07f322ac3b7786b955b95e3";

  cases[2].name = "faults=0.25";
  cases[2].options.faults = fault::FaultConfig::uniform(0.25);
  cases[2].sha256 =
      "edca1048d67c8abc4d2dc10f786479d198d5978b93d3c5e45eecfaeb57858fe1";

  cases[3].name = "deadline=400ms";
  cases[3].options.site_deadline = util::milliseconds(400);
  cases[3].sha256 =
      "4f60ea6ef16dbd85aa150dc98e34d6ab4912b4d4f9b178c9c91e1322965212cd";
  return cases;
}

struct LoadedSite {
  std::string url;
  browser::PageLoadResult page;
};

/// A hand-built site the generated universe never produces: b.mis.test is
/// announced on both cluster addresses but served on the second only, so
/// IP pooling routes it onto a.mis.test's session and draws a 421.
web::Website misdirecting_site(web::Ecosystem& eco) {
  eco.register_as("PIN-AS", 64999,
                  net::Prefix::parse("198.18.0.0/16").value());
  web::ClusterSpec spec;
  spec.operator_name = "mis";
  spec.as_name = "PIN-AS";
  spec.ip_count = 2;
  spec.certs = {{"CA", {"*.mis.test"}}};
  web::DomainSpec a;
  a.name = "a.mis.test";
  a.dns_pool = {0};
  a.serves_on = {0};
  web::DomainSpec b;
  b.name = "b.mis.test";
  b.dns_pool = {0, 1};
  b.serves_on = {1};
  spec.domains = {a, b};
  eco.add_cluster(spec);

  web::Website site;
  site.url = "https://a.mis.test";
  site.landing_domain = "a.mis.test";
  web::Resource image;
  image.domain = "b.mis.test";
  image.path = "/i";
  image.destination = fetch::Destination::kImage;
  image.start_delay = 50;
  site.resources = {image};
  return site;
}

/// Loads the first kSites ranks of the case's universe the way a crawl
/// worker does (one browser, the resolver cache flushed per site, one site
/// per simulated minute), then the misdirecting site.
std::vector<LoadedSite> load_sites(const PinCase& pin) {
  web::Ecosystem eco{kSeed};
  web::ServiceCatalog catalog{eco, kSeed, 160, pin.origin_universe};
  web::UniverseConfig config = web::UniverseConfig::defaults();
  config.seed = kSeed;
  config.announce_origin_frames = pin.origin_universe;
  web::SiteUniverse universe{eco, catalog, config};

  dns::RecursiveResolver resolver{dns::standard_vantage_points()[0],
                                  &eco.authority()};
  browser::Browser chrome{eco, resolver, pin.options, kSeed + 1};
  std::vector<LoadedSite> out;
  for (std::size_t rank = 0; rank < kSites; ++rank) {
    if (universe.unreachable(rank)) continue;
    const web::Website site = universe.generate_site(rank);
    resolver.flush_cache();
    out.push_back(LoadedSite{
        site.url,
        chrome.load(site, util::days(1) +
                              static_cast<util::SimTime>(rank) *
                                  util::minutes(1))});
  }
  const web::Website site = misdirecting_site(eco);
  resolver.flush_cache();
  out.push_back(LoadedSite{site.url, chrome.load(site, util::days(2))});
  return out;
}

TEST(NetLogPin, DumpBytesAndEventCoverage) {
  std::array<std::size_t, kEventTypes.size()> seen{};
  for (const PinCase& pin : pin_cases()) {
    SCOPED_TRACE(pin.name);
    std::string bytes;
    for (const LoadedSite& site : load_sites(pin)) {
      bytes += json::write(site.page.log.to_json());
      bytes += '\n';
      for (const Event& e : site.page.log.events()) {
        ++seen[static_cast<std::size_t>(e.type)];
      }
    }
    EXPECT_EQ(testing::sha256_hex(bytes), pin.sha256);
  }
  for (std::size_t t = 0; t < seen.size(); ++t) {
    EXPECT_GT(seen[t], 0u) << to_string(static_cast<EventType>(t));
  }
}

TEST(NetLogPin, ParsedDumpStitchesToTheSameObservation) {
  for (const PinCase& pin : pin_cases()) {
    SCOPED_TRACE(pin.name);
    for (const LoadedSite& site : load_sites(pin)) {
      SCOPED_TRACE(site.url);
      const auto parsed = NetLog::from_json(site.page.log.to_json());
      ASSERT_TRUE(parsed.has_value()) << parsed.error().message;
      EXPECT_EQ(json::write(core::to_json(stitch_site(site.url, *parsed))),
                json::write(core::to_json(site.page.observation)));
    }
  }
}

}  // namespace
}  // namespace h2r::netlog

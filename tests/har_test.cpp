#include <gtest/gtest.h>

#include "har/export.hpp"
#include "har/har.hpp"
#include "har/import.hpp"

namespace h2r::har {
namespace {

Entry h2_entry(std::int64_t conn, const char* url, util::SimTime started,
               const char* ip = "10.0.0.1") {
  Entry e;
  e.pageref = "page_1";
  e.request_id = "r" + std::to_string(started);
  e.started = started;
  e.time_ms = 40;
  e.method = "GET";
  e.url = url;
  e.http_version = "h2";
  e.status = 200;
  e.server_ip = ip;
  e.connection_id = conn;
  e.has_security_details = true;
  e.san_list = {"*.example.com"};
  e.issuer = "Test CA";
  e.cert_serial = 7;
  return e;
}

Log simple_log() {
  Log log;
  log.page.id = "page_1";
  log.page.url = "https://www.example.com";
  log.entries.push_back(h2_entry(11, "https://www.example.com/", 0));
  log.entries.push_back(h2_entry(11, "https://www.example.com/a.js", 30));
  log.entries.push_back(
      h2_entry(12, "https://img.example.com/x.png", 60, "10.0.0.2"));
  return log;
}

// ------------------------------------------------------------- URL helpers

TEST(UrlHelpers, HostAndPath) {
  EXPECT_EQ(url_host("https://www.example.com/a/b?c=d"), "www.example.com");
  EXPECT_EQ(url_host("https://example.com"), "example.com");
  EXPECT_EQ(url_host("https://example.com:8443/x"), "example.com");
  EXPECT_EQ(url_path("https://example.com/a/b"), "/a/b");
  EXPECT_EQ(url_path("https://example.com"), "/");
}

// ---------------------------------------------------------------- to_json

TEST(HarJson, RoundTrip) {
  const Log log = simple_log();
  const auto parsed = parse(to_string(log));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->page.url, log.page.url);
  ASSERT_EQ(parsed->entries.size(), 3u);
  const Entry& e = parsed->entries[0];
  EXPECT_EQ(e.url, "https://www.example.com/");
  EXPECT_EQ(e.http_version, "h2");
  EXPECT_EQ(e.connection_id, 11);
  EXPECT_EQ(e.server_ip, "10.0.0.1");
  ASSERT_TRUE(e.has_security_details);
  EXPECT_EQ(e.san_list, std::vector<std::string>{"*.example.com"});
  EXPECT_EQ(e.issuer, "Test CA");
  EXPECT_EQ(e.cert_serial, 7u);
}

TEST(HarJson, MissingLogObjectIsError) {
  EXPECT_FALSE(from_json(json::parse("{}").value()).has_value());
  EXPECT_FALSE(parse("[1,2,3]").has_value());
  EXPECT_FALSE(parse("not json").has_value());
}

TEST(HarJson, EntryWithoutOptionalsParses) {
  const char* text = R"({"log":{"pages":[{"id":"p","title":"u",
    "startedDateTime":0}],"entries":[{"pageref":"p","startedDateTime":5,
    "time":1.5,"request":{"method":"GET","url":"https://x/","httpVersion":"h2"},
    "response":{"status":200}}]}})";
  const auto log = parse(text);
  ASSERT_TRUE(log.has_value());
  const Entry& e = log->entries[0];
  EXPECT_EQ(e.connection_id, -1);
  EXPECT_FALSE(e.has_security_details);
  EXPECT_TRUE(e.server_ip.empty());
}

// ----------------------------------------------------------------- import

TEST(HarImport, GroupsRequestsByConnection) {
  ImportStats stats;
  const core::SiteObservation site = import_site(simple_log(), &stats);
  ASSERT_EQ(site.connections.size(), 2u);
  EXPECT_EQ(site.connections[0].requests.size(), 2u);
  EXPECT_EQ(site.connections[0].initial_domain, "www.example.com");
  EXPECT_EQ(site.connections[0].opened_at, 0);
  EXPECT_FALSE(site.connections[0].closed_at.has_value());
  EXPECT_EQ(site.connections[1].initial_domain, "img.example.com");
  EXPECT_EQ(stats.used_entries, 3u);
  EXPECT_EQ(stats.dropped(), 0u);
}

TEST(HarImport, ConnectionsSortedByFirstRequest) {
  Log log;
  log.page.url = "https://x";
  log.entries.push_back(h2_entry(20, "https://late.example.com/", 500, "10.0.0.5"));
  log.entries.push_back(h2_entry(10, "https://early.example.com/", 100, "10.0.0.4"));
  const auto site = import_site(log, nullptr);
  ASSERT_EQ(site.connections.size(), 2u);
  EXPECT_EQ(site.connections[0].initial_domain, "early.example.com");
}

struct FilterCase {
  const char* name;
  void (*mutate)(Entry&);
  std::uint64_t ImportStats::*counter;
};

// gtest_discover_tests names each case after this text; without it gtest
// prints the struct's raw bytes, whose pointers differ on every run.
void PrintTo(const FilterCase& c, std::ostream* os) { *os << c.name; }

class HarImportFilter : public ::testing::TestWithParam<FilterCase> {};

TEST_P(HarImportFilter, DropsAndCounts) {
  Log log;
  log.page.id = "page_1";
  log.page.url = "https://x";
  Entry bad = h2_entry(11, "https://a.example.com/", 0);
  GetParam().mutate(bad);
  log.entries.push_back(bad);
  log.entries.push_back(h2_entry(12, "https://b.example.com/", 10, "10.0.0.2"));

  ImportStats stats;
  const auto site = import_site(log, &stats);
  EXPECT_EQ(site.connections.size(), 1u) << GetParam().name;
  EXPECT_EQ(stats.*(GetParam().counter), 1u) << GetParam().name;
  EXPECT_EQ(site.filtered_requests + (stats.h1_entries + stats.h3_entries), 1u);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, HarImportFilter,
    ::testing::Values(
        FilterCase{"socket_zero", [](Entry& e) { e.connection_id = 0; },
                   &ImportStats::socket_zero},
        FilterCase{"missing_conn", [](Entry& e) { e.connection_id = -1; },
                   &ImportStats::missing_ip},
        FilterCase{"missing_ip", [](Entry& e) { e.server_ip.clear(); },
                   &ImportStats::missing_ip},
        FilterCase{"bad_ip", [](Entry& e) { e.server_ip = "not-an-ip"; },
                   &ImportStats::missing_ip},
        FilterCase{"invalid_method", [](Entry& e) { e.method = "0"; },
                   &ImportStats::invalid_method},
        FilterCase{"invalid_version",
                   [](Entry& e) { e.http_version = "unknown"; },
                   &ImportStats::invalid_version},
        FilterCase{"invalid_status", [](Entry& e) { e.status = 0; },
                   &ImportStats::invalid_status},
        FilterCase{"wrong_pageref", [](Entry& e) { e.pageref = "page_2"; },
                   &ImportStats::wrong_pageref},
        FilterCase{"missing_request_id",
                   [](Entry& e) { e.request_id.clear(); },
                   &ImportStats::missing_request_id},
        FilterCase{"missing_cert",
                   [](Entry& e) {
                     e.has_security_details = false;
                     e.san_list.clear();
                   },
                   &ImportStats::missing_certificate},
        FilterCase{"h1", [](Entry& e) { e.http_version = "http/1.1"; },
                   &ImportStats::h1_entries},
        FilterCase{"h3", [](Entry& e) { e.http_version = "h3"; },
                   &ImportStats::h3_entries}),
    [](const auto& test_info) {
      return std::string(test_info.param.name);
    });

TEST(HarImport, InconsistentIpWithinConnectionDropsRequest) {
  Log log;
  log.page.url = "https://x";
  log.entries.push_back(h2_entry(11, "https://a.example.com/", 0, "10.0.0.1"));
  log.entries.push_back(h2_entry(11, "https://a.example.com/b", 10, "10.0.0.9"));
  ImportStats stats;
  const auto site = import_site(log, &stats);
  EXPECT_EQ(stats.inconsistent_ip, 1u);
  ASSERT_EQ(site.connections.size(), 1u);
  EXPECT_EQ(site.connections[0].requests.size(), 1u);
}

TEST(HarImport, Status421PopulatesExclusions) {
  Log log;
  log.page.url = "https://x";
  Entry misdirected = h2_entry(11, "https://alias.example.com/", 0);
  misdirected.status = 421;
  log.entries.push_back(misdirected);
  const auto site = import_site(log, nullptr);
  ASSERT_EQ(site.connections.size(), 1u);
  EXPECT_TRUE(site.connections[0].excludes("alias.example.com"));
}

TEST(HarImportStats, Accumulate) {
  ImportStats a;
  a.total_entries = 5;
  a.socket_zero = 2;
  ImportStats b;
  b.total_entries = 3;
  b.socket_zero = 1;
  a.add(b);
  EXPECT_EQ(a.total_entries, 8u);
  EXPECT_EQ(a.socket_zero, 3u);
}

TEST(HarMultiPage, SplitAssignsEntriesByPageref) {
  Log log;
  log.page = {"page_1", "https://one.example", 0};
  log.extra_pages.push_back({"page_2", "https://two.example", 5000});
  Entry first = h2_entry(11, "https://one.example/", 0);
  Entry second = h2_entry(12, "https://two.example/", 5000, "10.0.0.2");
  second.pageref = "page_2";
  Entry orphan = h2_entry(13, "https://lost.example/", 10, "10.0.0.3");
  orphan.pageref = "page_99";
  log.entries = {first, second, orphan};

  const auto pages = split_pages(log);
  ASSERT_EQ(pages.size(), 2u);
  EXPECT_EQ(pages[0].page.url, "https://one.example");
  EXPECT_EQ(pages[0].entries.size(), 2u);  // own entry + orphan
  EXPECT_EQ(pages[1].entries.size(), 1u);
  EXPECT_EQ(pages[1].entries[0].url, "https://two.example/");

  // Importing the primary page drops the orphan via the pageref filter.
  ImportStats stats;
  const auto site = import_site(pages[0], &stats);
  EXPECT_EQ(stats.wrong_pageref, 1u);
  EXPECT_EQ(site.connections.size(), 1u);
  // The second page imports cleanly against its own page id.
  ImportStats stats2;
  const auto site2 = import_site(pages[1], &stats2);
  EXPECT_EQ(stats2.dropped(), 0u);
  EXPECT_EQ(site2.site_url, "https://two.example");
}

TEST(HarMultiPage, JsonRoundTripKeepsAllPages) {
  Log log;
  log.page = {"page_1", "https://one.example", 0};
  log.extra_pages.push_back({"page_2", "https://two.example", 5000});
  log.entries.push_back(h2_entry(11, "https://one.example/", 0));
  const auto parsed = parse(to_string(log));
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(parsed->extra_pages.size(), 1u);
  EXPECT_EQ(parsed->extra_pages[0].id, "page_2");
  EXPECT_EQ(parsed->all_pages().size(), 2u);
}

// ----------------------------------------------------------------- export

core::SiteObservation sample_observation() {
  core::SiteObservation site;
  site.site_url = "https://www.example.com";
  core::ConnectionRecord rec;
  rec.id = 1;
  rec.endpoint =
      net::Endpoint{net::IpAddress::parse("10.0.0.1").value(), 443};
  rec.initial_domain = "www.example.com";
  rec.san_dns_names = {"*.example.com"};
  rec.issuer_organization = "Test CA";
  rec.has_certificate = true;
  rec.opened_at = 0;
  core::RequestRecord req;
  req.started_at = 0;
  req.finished_at = 40;
  req.domain = "www.example.com";
  rec.requests.push_back(req);
  site.connections.push_back(rec);
  return site;
}

TEST(HarExport, CleanExportReimportsLosslessly) {
  util::Rng rng{1};
  const Log log =
      export_site(sample_observation(), {}, ExportQuirks::none(), rng);
  ASSERT_EQ(log.entries.size(), 1u);
  EXPECT_EQ(log.entries[0].http_version, "h2");
  ImportStats stats;
  const auto site = import_site(log, &stats);
  EXPECT_EQ(stats.dropped(), 0u);
  ASSERT_EQ(site.connections.size(), 1u);
  EXPECT_EQ(site.connections[0].initial_domain, "www.example.com");
  EXPECT_EQ(site.connections[0].san_dns_names,
            std::vector<std::string>{"*.example.com"});
}

TEST(HarExport, H1EntriesAreAppendedAndFiltered) {
  util::Rng rng{1};
  Entry h1;
  h1.url = "https://legacy.example.org/";
  h1.http_version = "http/1.1";
  h1.started = 5;
  h1.request_id = "h1-1";
  h1.connection_id = 1000;
  const Log log = export_site(sample_observation(), std::vector<Entry>{h1},
                              ExportQuirks::none(), rng);
  EXPECT_EQ(log.entries.size(), 2u);
  ImportStats stats;
  const auto site = import_site(log, &stats);
  EXPECT_EQ(stats.h1_entries, 1u);
  EXPECT_EQ(site.connections.size(), 1u);
}

TEST(HarExport, QuirksDegradeEntriesAtConfiguredRate) {
  // With p_invalid_method = 1 every entry must be dropped by the importer.
  ExportQuirks quirks = ExportQuirks::none();
  quirks.p_invalid_method = 1.0;
  util::Rng rng{2};
  const Log log = export_site(sample_observation(), {}, quirks, rng);
  ImportStats stats;
  const auto site = import_site(log, &stats);
  EXPECT_EQ(stats.invalid_method, 1u);
  EXPECT_TRUE(site.connections.empty());
}

TEST(HarExport, H3QuirkProducesSocketZero) {
  ExportQuirks quirks = ExportQuirks::none();
  quirks.p_h3 = 1.0;
  util::Rng rng{3};
  const Log log = export_site(sample_observation(), {}, quirks, rng);
  EXPECT_EQ(log.entries[0].http_version, "h3");
  EXPECT_EQ(log.entries[0].connection_id, 0);
  ImportStats stats;
  import_site(log, &stats);
  EXPECT_EQ(stats.h3_entries, 1u);
}

TEST(HarExport, EntriesSortedByStartTime) {
  core::SiteObservation site = sample_observation();
  core::ConnectionRecord late = site.connections[0];
  late.id = 2;
  late.opened_at = 100;
  late.requests[0].started_at = 100;
  late.requests[0].domain = "late.example.com";
  core::ConnectionRecord early = site.connections[0];
  early.id = 3;
  early.opened_at = 100;
  early.requests[0].started_at = 1;  // earlier request on later connection
  site.connections.push_back(late);
  site.connections.push_back(early);
  util::Rng rng{4};
  const Log log = export_site(site, {}, ExportQuirks::none(), rng);
  for (std::size_t i = 1; i < log.entries.size(); ++i) {
    EXPECT_LE(log.entries[i - 1].started, log.entries[i].started);
  }
}

}  // namespace
}  // namespace h2r::har

#include <gtest/gtest.h>

#include "core/advisor.hpp"
#include "core/observation_json.hpp"
#include "core/report_json.hpp"
#include "netlog/netlog.hpp"
#include "util/rng.hpp"

namespace h2r::core {
namespace {

net::IpAddress ip(const char* s) { return net::IpAddress::parse(s).value(); }

ConnectionRecord conn(std::uint64_t id, const char* address,
                      const char* domain, std::vector<std::string> sans,
                      util::SimTime opened_at) {
  ConnectionRecord rec;
  rec.id = id;
  rec.endpoint = net::Endpoint{ip(address), 443};
  rec.initial_domain = domain;
  rec.san_dns_names = std::move(sans);
  rec.issuer_organization = "CA";
  rec.has_certificate = true;
  rec.opened_at = opened_at;
  RequestRecord req;
  req.started_at = opened_at;
  req.finished_at = opened_at + 40;
  req.domain = domain;
  rec.requests.push_back(req);
  return rec;
}

SiteObservation redundant_site() {
  SiteObservation site;
  site.site_url = "https://x.example";
  site.connections = {
      conn(1, "10.0.0.1", "gtm.metrics.example", {"*.metrics.example"}, 0),
      conn(2, "10.0.0.2", "ga.metrics.example", {"*.metrics.example"}, 100),
  };
  return site;
}

TEST(ReportJson, AggregateReportSerializes) {
  Aggregator agg;
  const SiteObservation site = redundant_site();
  agg.add_site(site, classify_site(site, {DurationModel::kEndless}));
  const AggregateReport& report = agg.report();
  EXPECT_EQ(report.h2_sites, 1u);
  EXPECT_EQ(report.total_connections, 2u);
  EXPECT_EQ(report.redundant_connections, 1u);
  auto cause_connections = [&report](Cause cause) {
    const auto it = report.by_cause.find(cause);
    return it == report.by_cause.end() ? 0u : it->second.connections;
  };
  EXPECT_EQ(cause_connections(Cause::kIp), 1u);
  EXPECT_EQ(cause_connections(Cause::kCert), 0u);
  ASSERT_EQ(report.ip_origins.size(), 1u);
  const auto& [origin, tally] = *report.ip_origins.begin();
  EXPECT_EQ(origin, "ga.metrics.example");
  const auto previous = top_previous(tally);
  ASSERT_TRUE(previous.has_value());
  EXPECT_EQ(previous->first, "gtm.metrics.example");
  // The serialized document is valid JSON end-to-end and parses back.
  const auto parsed = json::parse(json::write(to_json_full(report)));
  ASSERT_TRUE(parsed.has_value());
  const auto round = report_from_json(parsed.value());
  ASSERT_TRUE(round.has_value()) << round.error().message;
  EXPECT_TRUE(*round == report);
}

TEST(ReportJson, ClassificationSerializes) {
  const SiteObservation site = redundant_site();
  const json::Value v =
      to_json(classify_site(site, {DurationModel::kEndless}));
  EXPECT_EQ(v["redundant_connections"].as_int(), 1);
  ASSERT_EQ(v["findings"].as_array().size(), 1u);
  EXPECT_EQ(v["findings"].at(0)["connection_index"].as_int(), 1);
  EXPECT_EQ(v["findings"].at(0)["causes"].at(0).as_string(), "IP");
  EXPECT_EQ(v["findings"]
                .at(0)["reusable_previous"]["IP"]
                .at(0)
                .as_string(),
            "gtm.metrics.example");
}

TEST(ReportJson, AuditReportSerializes) {
  const json::Value v = to_json(audit_site(redundant_site()));
  EXPECT_EQ(v["site"].as_string(), "https://x.example");
  ASSERT_EQ(v["advice"].as_array().size(), 1u);
  EXPECT_EQ(v["advice"].at(0)["cause"].as_string(), "IP");
  EXPECT_FALSE(v["advice"].at(0)["remedy"].as_string().empty());
}

TEST(ReportJson, HistogramBucketsAccountForAllSites) {
  Aggregator agg;
  const SiteObservation site = redundant_site();
  agg.add_site(site, classify_site(site, {DurationModel::kEndless}));
  SiteObservation clean;
  clean.site_url = "https://clean.example";
  clean.connections = {conn(1, "10.0.0.9", "a.one", {"a.one"}, 0)};
  agg.add_site(clean, classify_site(clean, {DurationModel::kEndless}));

  const AggregateReport& report = agg.report();
  std::uint64_t sites = 0;
  for (const auto& [redundant, count] : report.redundant_per_site_histogram) {
    sites += count;
  }
  EXPECT_EQ(report.h2_sites, 2u);
  EXPECT_EQ(sites, report.h2_sites);
}

TEST(ObservationJson, FullRoundTrip) {
  SiteObservation site = redundant_site();
  site.connections[0].closed_at = 5000;
  site.connections[0].excluded_domains.push_back("rejected.example");
  site.connections[1].origin_set =
      std::vector<std::string>{"ga.metrics.example"};
  site.connections[1].protocol = "h3";
  site.filtered_requests = 3;

  const auto parsed = observation_from_json(to_json(site));
  ASSERT_TRUE(parsed.has_value()) << parsed.error().message;
  const SiteObservation& round = parsed.value();
  EXPECT_EQ(round.site_url, site.site_url);
  EXPECT_EQ(round.filtered_requests, 3u);
  ASSERT_EQ(round.connections.size(), 2u);
  EXPECT_EQ(round.connections[0].endpoint, site.connections[0].endpoint);
  EXPECT_EQ(round.connections[0].closed_at, site.connections[0].closed_at);
  EXPECT_TRUE(round.connections[0].excludes("rejected.example"));
  EXPECT_EQ(round.connections[1].protocol, "h3");
  ASSERT_TRUE(round.connections[1].origin_set.has_value());
  EXPECT_EQ(round.connections[1].requests.size(), 1u);
  EXPECT_EQ(round.connections[1].requests[0].status, 200);

  // The classification of the round-tripped observation is identical.
  const auto cls_a = classify_site(site, {DurationModel::kEndless});
  const auto cls_b = classify_site(round, {DurationModel::kEndless});
  EXPECT_EQ(cls_a.redundant_connections(), cls_b.redundant_connections());
  EXPECT_EQ(cls_a.count_cause(Cause::kIp), cls_b.count_cause(Cause::kIp));
}

TEST(ObservationJson, DatasetRoundTrip) {
  std::vector<SiteObservation> sites = {redundant_site(), redundant_site()};
  sites[1].site_url = "https://y.example";
  const auto parsed = dataset_from_json(dataset_to_json(sites));
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(parsed->size(), 2u);
  EXPECT_EQ((*parsed)[1].site_url, "https://y.example");
}

TEST(ObservationJson, RejectsGarbage) {
  EXPECT_FALSE(dataset_from_json(json::parse("{}").value()).has_value());
  EXPECT_FALSE(observation_from_json(
                   json::parse(R"({"connections":[{"ip":"junk"}]})").value())
                   .has_value());
}

// ------------------- full-fidelity round trip (the journal's substrate)

/// Randomized report with every field populated — including attribution
/// tables far larger than the human-facing top-20 cut.
AggregateReport random_report(util::Rng& rng) {
  AggregateReport r;
  auto count = [&rng](std::uint64_t hi) { return rng.uniform(0, hi); };
  r.analyzed_sites = count(5000);
  r.h2_sites = count(4000);
  r.redundant_sites = count(3000);
  r.total_connections = count(100000);
  r.redundant_connections = count(50000);
  r.filtered_requests = count(9999);
  r.closed_connections = count(1234);
  r.cred_same_domain_connections = count(77);
  for (Cause cause : kAllCauses) {
    if (rng.uniform01() < 0.8) {
      r.by_cause[cause] = CauseTally{count(100), count(1000)};
    }
    if (rng.uniform01() < 0.7) {
      TimeHistogram& offsets = r.redundant_open_offsets[cause];
      for (std::uint64_t i = count(6); i > 0; --i) {
        offsets.add(static_cast<util::SimTime>(count(90000)), count(5) + 1);
      }
    }
  }
  for (std::uint64_t i = count(8); i > 0; --i) {
    r.redundant_per_site_histogram[count(40)] += count(200) + 1;
  }
  for (std::uint64_t i = count(30); i > 0; --i) {
    OriginTally tally;
    tally.connections = count(500);
    for (std::uint64_t j = count(4); j > 0; --j) {
      tally.previous_origins["prev" + std::to_string(count(50))] +=
          count(20) + 1;
    }
    if (rng.uniform01() < 0.5) tally.issuer = "CA" + std::to_string(count(9));
    r.ip_origins["origin" + std::to_string(i)] = tally;
    r.cert_domains["domain" + std::to_string(i)] = tally;
  }
  for (std::uint64_t i = count(25); i > 0; --i) {
    IssuerTally tally;
    tally.connections = count(800);
    for (std::uint64_t j = count(5); j > 0; --j) {
      // std::string("d") +: dodges GCC 12's -Wrestrict false positive
      // (PR 105651) on const char* + string&&.
      tally.domains.insert(std::string("d") + std::to_string(count(60)));
    }
    r.cert_issuers["issuer" + std::to_string(i)] = tally;
    r.all_issuers["issuer" + std::to_string(i)] = tally;
    AsTally as_tally;
    as_tally.connections = tally.connections;
    as_tally.domains = tally.domains;
    r.ip_ases["AS" + std::to_string(i)] = as_tally;
  }
  for (std::uint64_t i = count(12); i > 0; --i) {
    r.closed_lifetimes_ms.add(static_cast<util::SimTime>(count(600000)),
                              count(9) + 1);
  }
  return r;
}

TEST(ReportJsonFull, RandomizedRoundTripIsExact) {
  util::Rng rng{0xFEEDF00Du};
  for (int iteration = 0; iteration < 50; ++iteration) {
    const AggregateReport report = random_report(rng);
    const json::Value serialized = to_json_full(report);
    const auto round = report_from_json(serialized);
    ASSERT_TRUE(round.has_value()) << round.error().message;
    EXPECT_TRUE(*round == report) << "iteration " << iteration;
    // Through bytes too (the journal stores text, not Values).
    const auto reparsed = json::parse(json::write(serialized));
    ASSERT_TRUE(reparsed.has_value());
    const auto round2 = report_from_json(reparsed.value());
    ASSERT_TRUE(round2.has_value()) << round2.error().message;
    EXPECT_TRUE(*round2 == report) << "iteration " << iteration;
  }
}

TEST(ReportJsonFull, FullViewIsUntruncated) {
  util::Rng rng{0xABCDu};
  AggregateReport report;
  // More rows than the bench tables' top-20 cut.
  for (int i = 0; i < 40; ++i) {
    OriginTally tally;
    tally.connections = static_cast<std::uint64_t>(100 + i);
    tally.previous_origins[std::string("p") + std::to_string(i)] = 2;
    report.ip_origins[std::string("o") + std::to_string(i)] = tally;
  }
  const json::Value full_view = to_json_full(report);
  EXPECT_EQ(full_view["ip_origins"].as_object().size(), 40u);
  const auto round = report_from_json(full_view);
  ASSERT_TRUE(round.has_value());
  EXPECT_TRUE(*round == report);
}

json::Value full_with(const json::Value& base, const std::string& key,
                      json::Value replacement) {
  json::Object out = base.as_object();
  out.set(key, std::move(replacement));
  return json::Value{std::move(out)};
}

TEST(ReportJsonFull, RejectsMalformedDocuments) {
  util::Rng rng{0x5151u};
  const json::Value good = to_json_full(random_report(rng));
  ASSERT_TRUE(report_from_json(good).has_value());

  // Wrong root type.
  EXPECT_FALSE(report_from_json(json::Value{json::Array{}}).has_value());
  // Missing counter.
  {
    json::Object out;
    for (const auto& [k, v] : good.as_object()) {
      if (k != "h2_sites") out.set(k, v);
    }
    EXPECT_FALSE(report_from_json(json::Value{std::move(out)}).has_value());
  }
  // Negative counter.
  EXPECT_FALSE(report_from_json(
                   full_with(good, "total_connections",
                             json::Value{static_cast<std::int64_t>(-1)}))
                   .has_value());
  // Double where an integer is required.
  EXPECT_FALSE(
      report_from_json(full_with(good, "analyzed_sites", json::Value{3.25}))
          .has_value());
  // NaN / overflow never even parse into an int: out-of-int64 literals
  // become doubles, which the strict parser then rejects.
  const auto huge = json::parse(R"({"x": 99999999999999999999999999})");
  ASSERT_TRUE(huge.has_value());
  EXPECT_FALSE((*huge)["x"].is_int());
  EXPECT_FALSE(report_from_json(
                   full_with(good, "redundant_connections", (*huge)["x"]))
                   .has_value());
  // Unknown cause key.
  {
    json::Object causes = good["causes"].as_object();
    json::Object bogus;
    bogus.set("sites", static_cast<std::int64_t>(1));
    bogus.set("connections", static_cast<std::int64_t>(1));
    causes.set("GREMLINS", json::Value{std::move(bogus)});
    EXPECT_FALSE(
        report_from_json(full_with(good, "causes",
                                   json::Value{std::move(causes)}))
            .has_value());
  }
}

TEST(HistogramJson, RoundTripAndStrictness) {
  stats::TimeHistogram histogram;
  histogram.add(0, 3);
  histogram.add(122200, 1);
  histogram.add(600000, 7);
  const json::Value v = histogram_to_json(histogram);
  const auto round = histogram_from_json(v);
  ASSERT_TRUE(round.has_value()) << round.error().message;
  EXPECT_EQ(*round, histogram);

  EXPECT_TRUE(histogram_from_json(json::Value{json::Array{}})->empty());
  // Zero counts, non-integers and unsorted pairs are rejected.
  EXPECT_FALSE(histogram_from_json(json::parse("[[5,0]]").value()).has_value());
  EXPECT_FALSE(
      histogram_from_json(json::parse("[[5.5,1]]").value()).has_value());
  EXPECT_FALSE(
      histogram_from_json(json::parse("[[9,1],[3,1]]").value()).has_value());
  EXPECT_FALSE(
      histogram_from_json(json::parse("[[3,1],[3,1]]").value()).has_value());
}

TEST(FailureSummaryJson, RoundTripIncludesWatchdog) {
  fault::FailureSummary summary;
  summary.tls_handshake = 4;
  summary.goaways = 2;
  summary.fetch_attempts = 40;
  summary.successful_fetches = 37;
  summary.failed_fetches = 3;
  summary.retries = 5;
  summary.retry_successes = 4;
  summary.degraded_resources = 9;
  summary.degraded_sites = 2;
  summary.deadline_exceeded = 11;
  const auto round = failure_summary_from_json(to_json(summary));
  ASSERT_TRUE(round.has_value()) << round.error().message;
  EXPECT_TRUE(*round == summary);
  EXPECT_EQ(round->deadline_exceeded, 11u);

  // A ledger missing a fault kind (old writer, new reader) is rejected
  // rather than silently zero-filled.
  json::Object trimmed = to_json(summary).as_object();
  json::Object injected;
  injected.set("dns-timeout", static_cast<std::int64_t>(1));
  trimmed.set("injected", json::Value{std::move(injected)});
  EXPECT_FALSE(
      failure_summary_from_json(json::Value{std::move(trimmed)}).has_value());
}

}  // namespace
}  // namespace h2r::core

namespace h2r::netlog {
namespace {

TEST(NetLogJson, RoundTrip) {
  NetLog log;
  log.record(
      EventType::kSessionCreated, 100, 7,
      SessionCreated{
          .endpoint = {net::IpAddress::parse("10.0.0.5").value(), 443},
          .domain = "a.example"});
  log.record(EventType::kRequestFinished, 200, 7,
             RequestFinished{.stream = 1, .status = 200});
  const auto parsed = NetLog::from_json(log.to_json());
  ASSERT_TRUE(parsed.has_value()) << parsed.error().message;
  ASSERT_EQ(parsed->size(), 2u);
  EXPECT_EQ(parsed->events()[0].type, EventType::kSessionCreated);
  EXPECT_EQ(parsed->events()[0].time, 100);
  EXPECT_EQ(parsed->events()[0].source_id, 7u);
  EXPECT_EQ(std::get<SessionCreated>(parsed->events()[0].payload).domain,
            "a.example");
  EXPECT_EQ(std::get<RequestFinished>(parsed->events()[1].payload).status,
            200);
}

TEST(NetLogJson, RejectsUnknownEventTypes) {
  const auto bad = json::parse(
      R"({"events":[{"type":"NOT_A_THING","time":1,"source":1,"params":{}}]})");
  ASSERT_TRUE(bad.has_value());
  EXPECT_FALSE(NetLog::from_json(bad.value()).has_value());
}

TEST(NetLogJson, RejectsMissingEvents) {
  EXPECT_FALSE(NetLog::from_json(json::parse("{}").value()).has_value());
}

}  // namespace
}  // namespace h2r::netlog

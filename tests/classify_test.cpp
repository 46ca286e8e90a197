#include <gtest/gtest.h>

#include "core/classify.hpp"

namespace h2r::core {
namespace {

net::IpAddress ip(const char* s) { return net::IpAddress::parse(s).value(); }

ConnectionRecord conn(std::uint64_t id, const char* address,
                      const char* domain,
                      std::vector<std::string> sans,
                      util::SimTime opened_at,
                      const char* issuer = "Test CA") {
  ConnectionRecord rec;
  rec.id = id;
  rec.endpoint = net::Endpoint{ip(address), 443};
  rec.initial_domain = domain;
  rec.san_dns_names = std::move(sans);
  rec.issuer_organization = issuer;
  rec.has_certificate = !rec.san_dns_names.empty();
  rec.opened_at = opened_at;
  RequestRecord req;
  req.started_at = opened_at;
  req.finished_at = opened_at + 50;
  req.domain = domain;
  rec.requests.push_back(req);
  return rec;
}

SiteObservation site(std::vector<ConnectionRecord> conns) {
  SiteObservation s;
  s.site_url = "https://test.example";
  s.connections = std::move(conns);
  return s;
}

SiteClassification classify(std::vector<ConnectionRecord> conns,
                            DurationModel model = DurationModel::kEndless) {
  return classify_site(site(std::move(conns)), {model});
}

// ------------------------------------------------------------ base cases

TEST(Classify, SingleConnectionIsNeverRedundant) {
  const auto cls = classify({conn(1, "10.0.0.1", "a.example", {"a.example"}, 0)});
  EXPECT_TRUE(cls.findings.empty());
  EXPECT_EQ(cls.total_connections, 1u);
}

TEST(Classify, UnknownThirdPartyIsNotRedundant) {
  // Different IP, certificate does not cover: a fresh third party.
  const auto cls = classify({
      conn(1, "10.0.0.1", "a.example", {"a.example"}, 0),
      conn(2, "10.0.0.2", "b.other", {"b.other"}, 100),
  });
  EXPECT_TRUE(cls.findings.empty());
}

TEST(Classify, CertCause) {
  // Same IP, previous certificate does not include the new domain.
  const auto cls = classify({
      conn(1, "10.0.0.1", "static.klaviyo.com", {"static.klaviyo.com"}, 0),
      conn(2, "10.0.0.1", "fast.a.klaviyo.com", {"fast.a.klaviyo.com"}, 100),
  });
  ASSERT_EQ(cls.findings.size(), 1u);
  EXPECT_EQ(cls.findings[0].connection_index, 1u);
  EXPECT_EQ(cls.findings[0].causes, std::set<Cause>{Cause::kCert});
  EXPECT_EQ(cls.findings[0].reusable_previous_domains.at(Cause::kCert),
            std::set<std::string>{"static.klaviyo.com"});
}

TEST(Classify, IpCause) {
  // Different IP, previous certificate covers the new domain.
  const auto cls = classify({
      conn(1, "10.0.0.1", "www.googletagmanager.com",
           {"*.googletagmanager.com", "*.google-analytics.com"}, 0),
      conn(2, "10.0.0.2", "www.google-analytics.com",
           {"*.google-analytics.com"}, 100),
  });
  ASSERT_EQ(cls.findings.size(), 1u);
  EXPECT_EQ(cls.findings[0].causes, std::set<Cause>{Cause::kIp});
  EXPECT_EQ(cls.findings[0].reusable_previous_domains.at(Cause::kIp),
            std::set<std::string>{"www.googletagmanager.com"});
}

TEST(Classify, CredCause) {
  // Same IP, covering certificate: reuse was possible -> CRED.
  const auto cls = classify({
      conn(1, "10.0.0.1", "track.example", {"*.example"}, 0),
      conn(2, "10.0.0.1", "track.example", {"*.example"}, 100),
  });
  ASSERT_EQ(cls.findings.size(), 1u);
  EXPECT_EQ(cls.findings[0].causes, std::set<Cause>{Cause::kCred});
}

TEST(Classify, CornerCaseSameDomainDifferentIpIsCred) {
  // §4.1: would otherwise be misclassified as IP.
  const auto cls = classify({
      conn(1, "10.0.0.1", "track.example", {"*.example"}, 0),
      conn(2, "10.0.0.2", "track.example", {"*.example"}, 100),
  });
  ASSERT_EQ(cls.findings.size(), 1u);
  EXPECT_EQ(cls.findings[0].causes, std::set<Cause>{Cause::kCred});
}

TEST(Classify, PortMustMatchForSameEndpoint) {
  auto first = conn(1, "10.0.0.1", "a.example", {"*.example"}, 0);
  auto second = conn(2, "10.0.0.1", "b.example", {"*.example"}, 100);
  second.endpoint.port = 8443;
  // Different port -> not the same endpoint; but the cert covers and the
  // IP "differs" (endpoint inequality with same address): per RFC 7540 the
  // IP must match AND the port; we classify by endpoint, so this is IP.
  const auto cls = classify({first, second});
  ASSERT_EQ(cls.findings.size(), 1u);
  EXPECT_EQ(cls.findings[0].causes, std::set<Cause>{Cause::kIp});
}

// ------------------------------------------------------ paper §4.1 example

TEST(Classify, PaperFourConnectionExample) {
  // Four successively opened same-IP connections: #1 and #3 use cert A,
  // #2 and #4 use cert B. The paper counts three redundant connections,
  // 3x CERT (#2 vs #1, #3 vs #2, #4 vs #1/#3) and 2x CRED (#3 vs #1,
  // #4 vs #2).
  const auto cls = classify({
      conn(1, "10.0.0.1", "a.example", {"a.example"}, 0),
      conn(2, "10.0.0.1", "b.example", {"b.example"}, 100),
      conn(3, "10.0.0.1", "a.example", {"a.example"}, 200),
      conn(4, "10.0.0.1", "b.example", {"b.example"}, 300),
  });
  EXPECT_EQ(cls.redundant_connections(), 3u);
  EXPECT_EQ(cls.count_cause(Cause::kCert), 3u);
  EXPECT_EQ(cls.count_cause(Cause::kCred), 2u);
  EXPECT_EQ(cls.count_cause(Cause::kIp), 0u);
  // Connection #3 (index 2) is redundant to #1 (CRED) and #2 (CERT).
  const ConnectionFinding& third = cls.findings[1];
  EXPECT_EQ(third.connection_index, 2u);
  EXPECT_EQ(third.causes, (std::set<Cause>{Cause::kCert, Cause::kCred}));
}

// ---------------------------------------------------------- 421 exclusion

TEST(Classify, ExcludedDomainsAreIgnored) {
  auto first = conn(1, "10.0.0.1", "a.example", {"*.example"}, 0);
  first.excluded_domains.push_back("b.example");  // 421 for b.example
  const auto cls = classify({
      first,
      conn(2, "10.0.0.1", "b.example", {"*.example"}, 100),
  });
  EXPECT_TRUE(cls.findings.empty());
}

TEST(Classify, ExclusionIsPerDomain) {
  auto first = conn(1, "10.0.0.1", "a.example", {"*.example"}, 0);
  first.excluded_domains.push_back("b.example");
  const auto cls = classify({
      first,
      conn(2, "10.0.0.1", "c.example", {"*.example"}, 100),
  });
  EXPECT_EQ(cls.count_cause(Cause::kCred), 1u);
}

TEST(Classify, OriginSetActsAsExclusion) {
  auto first = conn(1, "10.0.0.1", "a.example", {"*.example"}, 0);
  first.origin_set = std::vector<std::string>{"a.example", "c.example"};
  const auto cls = classify({
      first,
      conn(2, "10.0.0.1", "b.example", {"*.example"}, 100),  // not in set
      conn(3, "10.0.0.1", "c.example", {"*.example"}, 200),  // in set
  });
  // b.example: excluded by the origin set -> only redundant vs conn #2's
  // own causes; c.example: CRED vs #1 (and vs #2 which has no origin set).
  ASSERT_EQ(cls.findings.size(), 1u);
  EXPECT_EQ(cls.findings[0].connection_index, 2u);
  EXPECT_TRUE(cls.findings[0].causes.count(Cause::kCred) > 0);
}

// ------------------------------------------------------- duration models

TEST(Classify, ImmediateModelMissesIdleConnections) {
  // Second connection opens after the first one's last request finished:
  // redundant under "endless", invisible under "immediate".
  auto first = conn(1, "10.0.0.1", "a.example", {"*.example"}, 0);
  first.requests[0].finished_at = 60;
  const auto second = conn(2, "10.0.0.1", "b.example", {"*.example"}, 500);
  EXPECT_EQ(classify({first, second}, DurationModel::kEndless)
                .redundant_connections(),
            1u);
  EXPECT_EQ(classify({first, second}, DurationModel::kImmediate)
                .redundant_connections(),
            0u);
}

TEST(Classify, ImmediateModelSeesOverlappingConnections) {
  auto first = conn(1, "10.0.0.1", "a.example", {"*.example"}, 0);
  first.requests[0].finished_at = 1000;  // still busy at t=500
  const auto second = conn(2, "10.0.0.1", "b.example", {"*.example"}, 500);
  EXPECT_EQ(classify({first, second}, DurationModel::kImmediate)
                .redundant_connections(),
            1u);
}

TEST(Classify, ExactModelUsesCloseTimes) {
  auto first = conn(1, "10.0.0.1", "a.example", {"*.example"}, 0);
  first.closed_at = 300;
  const auto second = conn(2, "10.0.0.1", "b.example", {"*.example"}, 500);
  EXPECT_EQ(classify({first, second}, DurationModel::kExact)
                .redundant_connections(),
            0u);
  auto open_first = conn(1, "10.0.0.1", "a.example", {"*.example"}, 0);
  EXPECT_EQ(classify({open_first, second}, DurationModel::kExact)
                .redundant_connections(),
            1u);
}

TEST(Availability, IntervalsPerModel) {
  auto rec = conn(1, "10.0.0.1", "a.example", {"a.example"}, 100);
  rec.requests[0].finished_at = 180;
  rec.closed_at = 500;
  EXPECT_EQ(availability(rec, DurationModel::kEndless).end, util::kSimTimeMax);
  EXPECT_EQ(availability(rec, DurationModel::kImmediate).end, 181);
  EXPECT_EQ(availability(rec, DurationModel::kExact).end, 500);
  EXPECT_EQ(availability(rec, DurationModel::kEndless).start, 100);
}

// --------------------------------------------------------- multi findings

TEST(Classify, MultipleCausesAcrossDifferentPrevs) {
  // prev #1: same IP, not covering -> CERT. prev #2: different IP,
  // covering -> IP. Both attach to connection #3.
  const auto cls = classify({
      conn(1, "10.0.0.1", "x.other", {"x.other"}, 0),
      conn(2, "10.0.0.2", "a.example", {"*.example"}, 50),
      conn(3, "10.0.0.1", "b.example", {"*.example"}, 100),
  });
  ASSERT_EQ(cls.findings.size(), 1u);
  EXPECT_EQ(cls.findings[0].causes,
            (std::set<Cause>{Cause::kCert, Cause::kIp}));
}

TEST(Classify, MissingCertificateNeverCovers) {
  auto first = conn(1, "10.0.0.1", "a.example", {}, 0);
  first.has_certificate = false;
  const auto cls = classify({
      first,
      conn(2, "10.0.0.1", "b.example", {"*.example"}, 100),
  });
  // Same IP, prev has no cert -> CERT (cannot cover).
  ASSERT_EQ(cls.findings.size(), 1u);
  EXPECT_EQ(cls.findings[0].causes, std::set<Cause>{Cause::kCert});
}

TEST(Classify, CaseInsensitiveDomains) {
  const auto cls = classify({
      conn(1, "10.0.0.1", "Track.Example", {"*.example"}, 0),
      conn(2, "10.0.0.2", "TRACK.EXAMPLE", {"*.example"}, 100),
  });
  ASSERT_EQ(cls.findings.size(), 1u);
  EXPECT_EQ(cls.findings[0].causes, std::set<Cause>{Cause::kCred});
}

TEST(Classify, HasCauseAndCounts) {
  const auto cls = classify({
      conn(1, "10.0.0.1", "a.example", {"a.example"}, 0),
      conn(2, "10.0.0.1", "b.example", {"b.example"}, 100),
      conn(3, "10.0.0.2", "c.other", {"c.other"}, 200),
  });
  EXPECT_TRUE(cls.has_cause(Cause::kCert));
  EXPECT_FALSE(cls.has_cause(Cause::kIp));
  EXPECT_FALSE(cls.has_cause(Cause::kCred));
  EXPECT_EQ(cls.count_cause(Cause::kCert), 1u);
  EXPECT_EQ(cls.redundant_connections(), 1u);
  EXPECT_EQ(cls.total_connections, 3u);
}

TEST(ToString, Names) {
  EXPECT_EQ(to_string(Cause::kCert), "CERT");
  EXPECT_EQ(to_string(Cause::kIp), "IP");
  EXPECT_EQ(to_string(Cause::kCred), "CRED");
  EXPECT_EQ(to_string(DurationModel::kEndless), "endless");
  EXPECT_EQ(to_string(DurationModel::kImmediate), "immediate");
  EXPECT_EQ(to_string(DurationModel::kExact), "exact");
}

// Regression: operator== once compared mask() alone, so policies
// differing only in duration or horizon (neither is a knob bit) compared
// equal — a cache keyed on Policy equality would have conflated distinct
// policy points. It is `= default` now; this pins every field.
TEST(Policy, EqualityCoversEveryFieldNotJustTheKnobMask) {
  const Policy base;
  EXPECT_EQ(base, Policy{});

  Policy duration = base;
  duration.duration = DurationModel::kImmediate;
  EXPECT_FALSE(duration == base);

  Policy horizon = base;
  horizon.horizon = util::seconds(30);
  EXPECT_FALSE(horizon == base);

  Policy origin_frame = base;
  origin_frame.origin_frame = true;
  EXPECT_FALSE(origin_frame == base);

  Policy sync_dns = base;
  sync_dns.sync_dns = true;
  EXPECT_FALSE(sync_dns == base);

  Policy cert = base;
  cert.cert_consolidation = true;
  EXPECT_FALSE(cert == base);

  Policy credentials = base;
  credentials.ignore_credentials = true;
  EXPECT_FALSE(credentials == base);
}

}  // namespace
}  // namespace h2r::core

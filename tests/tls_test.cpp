#include <gtest/gtest.h>

#include "tls/certificate.hpp"
#include "tls/issuance.hpp"

namespace h2r::tls {
namespace {

struct MatchCase {
  const char* pattern;
  const char* host;
  bool expected;
};

// gtest_discover_tests names each case after this text; without it gtest
// prints the struct's raw bytes, whose pointers differ on every run.
void PrintTo(const MatchCase& c, std::ostream* os) {
  *os << '"' << c.pattern << "\" vs \"" << c.host << "\" -> "
      << (c.expected ? "match" : "no match");
}

class DnsNameMatch : public ::testing::TestWithParam<MatchCase> {};

TEST_P(DnsNameMatch, MatchesPerRfc6125) {
  const MatchCase& c = GetParam();
  EXPECT_EQ(matches_dns_name(c.pattern, c.host), c.expected)
      << c.pattern << " vs " << c.host;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, DnsNameMatch,
    ::testing::Values(
        MatchCase{"example.com", "example.com", true},
        MatchCase{"EXAMPLE.com", "example.COM", true},  // case-insensitive
        MatchCase{"example.com", "www.example.com", false},
        MatchCase{"*.example.com", "www.example.com", true},
        MatchCase{"*.example.com", "EXAMPLE.com", false},   // no bare apex
        MatchCase{"*.example.com", "a.b.example.com", false},  // one label
        MatchCase{"*.example.com", "example.org", false},
        MatchCase{"*.g.doubleclick.net", "stats.g.doubleclick.net", true},
        MatchCase{"*.g.doubleclick.net", "g.doubleclick.net", false},
        MatchCase{"www.example.com", "example.com", false},
        MatchCase{"", "example.com", false},
        MatchCase{"example.com", "", false},
        MatchCase{"*.", "x.", false},  // empty label never matches
        MatchCase{"*.com", "example.com", true}));

TEST(Certificate, CoversViaSanList) {
  auto cert = Certificate::make({
      "static.klaviyo.com",
      {"static.klaviyo.com", "*.media.klaviyo.com"},
      "Let's Encrypt",
  });
  EXPECT_TRUE(cert->covers("static.klaviyo.com"));
  EXPECT_TRUE(cert->covers("a.media.klaviyo.com"));
  EXPECT_FALSE(cert->covers("fast.a.klaviyo.com"));  // the paper's CERT case
  EXPECT_EQ(cert->issuer_organization(), "Let's Encrypt");
}

TEST(Certificate, FallsBackToCommonNameWithoutSans) {
  auto cert = Certificate::make({"legacy.example.com", {}, "Old CA"});
  EXPECT_TRUE(cert->covers("legacy.example.com"));
  EXPECT_FALSE(cert->covers("other.example.com"));
}

TEST(Certificate, SanListIgnoresCommonNameWhenPresent) {
  auto cert = Certificate::make({"cn.example.com", {"san.example.com"}, "CA"});
  EXPECT_FALSE(cert->covers("cn.example.com"));
  EXPECT_TRUE(cert->covers("san.example.com"));
}

TEST(Certificate, ValidityWindow) {
  Certificate::Spec spec;
  spec.subject_common_name = "x";
  spec.san_dns_names = {"x"};
  spec.not_before = 100;
  spec.not_after = 200;
  auto cert = Certificate::make(spec);
  EXPECT_FALSE(cert->valid_at(99));
  EXPECT_TRUE(cert->valid_at(100));
  EXPECT_TRUE(cert->valid_at(200));
  EXPECT_FALSE(cert->valid_at(201));
}

TEST(Certificate, FingerprintDistinguishesSerials) {
  CertificateAuthority ca{"Test CA"};
  auto c1 = ca.issue({"a.example"});
  auto c2 = ca.issue({"a.example"});
  EXPECT_NE(c1->fingerprint(), c2->fingerprint());
}

TEST(CertificateAuthority, SerialsIncrease) {
  CertificateAuthority ca{"Test CA"};
  auto c1 = ca.issue({"a"});
  auto c2 = ca.issue({"b"});
  EXPECT_LT(c1->serial(), c2->serial());
  EXPECT_EQ(ca.issued_count(), 2u);
}

TEST(Issuance, MergedSanIssuesOneCertificate) {
  CertificateAuthority ca{"CA"};
  const auto certs = ca.issue_for(
      IssuancePolicy::kMergedSan,
      {"www.example.com", "static.example.com", "img.example.com"});
  ASSERT_EQ(certs.size(), 1u);
  EXPECT_TRUE(certs[0]->covers("www.example.com"));
  EXPECT_TRUE(certs[0]->covers("img.example.com"));
}

TEST(Issuance, PerDomainIssuesDisjunctCertificates) {
  // The certbot-default pattern behind the paper's CERT long tail.
  CertificateAuthority ca{"Let's Encrypt"};
  const auto certs = ca.issue_for(IssuancePolicy::kPerDomain,
                                  {"www.example.com", "static.example.com"});
  ASSERT_EQ(certs.size(), 2u);
  EXPECT_TRUE(certs[0]->covers("www.example.com"));
  EXPECT_FALSE(certs[0]->covers("static.example.com"));
  EXPECT_FALSE(certs[1]->covers("www.example.com"));
  EXPECT_TRUE(certs[1]->covers("static.example.com"));
}

TEST(Issuance, WildcardCoversSubdomainsPlusApex) {
  CertificateAuthority ca{"CA"};
  const auto certs = ca.issue_for(
      IssuancePolicy::kWildcard,
      {"www.example.com", "static.example.com", "example.com"},
      "example.com");
  ASSERT_EQ(certs.size(), 1u);
  EXPECT_TRUE(certs[0]->covers("example.com"));
  EXPECT_TRUE(certs[0]->covers("www.example.com"));
  EXPECT_TRUE(certs[0]->covers("anything.example.com"));
  EXPECT_FALSE(certs[0]->covers("a.b.example.com"));
}

TEST(Issuance, WildcardLeftoversGetOwnCertificates) {
  CertificateAuthority ca{"CA"};
  const auto certs = ca.issue_for(
      IssuancePolicy::kWildcard,
      {"www.example.com", "cdn.other-domain.net"}, "example.com");
  ASSERT_EQ(certs.size(), 2u);
  EXPECT_TRUE(certs[0]->covers("www.example.com"));
  EXPECT_TRUE(certs[1]->covers("cdn.other-domain.net"));
  EXPECT_FALSE(certs[0]->covers("cdn.other-domain.net"));
}

TEST(Issuance, EmptyDomainLists) {
  CertificateAuthority ca{"CA"};
  EXPECT_TRUE(ca.issue_for(IssuancePolicy::kMergedSan, {}).empty());
  EXPECT_TRUE(ca.issue_for(IssuancePolicy::kPerDomain, {}).empty());
  EXPECT_TRUE(ca.issue_for(IssuancePolicy::kWildcard, {}, "x").empty());
}

}  // namespace
}  // namespace h2r::tls

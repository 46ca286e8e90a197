#include <gtest/gtest.h>

#include <unordered_set>

#include "net/ip.hpp"

namespace h2r::net {
namespace {

TEST(IpV4, ParseAndFormat) {
  const auto ip = IpAddress::parse("192.168.1.42");
  ASSERT_TRUE(ip.has_value());
  EXPECT_TRUE(ip->is_v4());
  EXPECT_EQ(ip->to_string(), "192.168.1.42");
  EXPECT_EQ(ip->v4_value(), 0xC0A8012Au);
}

TEST(IpV4, FromOctetsAndValue) {
  const IpAddress a = IpAddress::v4(10, 0, 0, 1);
  const IpAddress b = IpAddress::v4(0x0A000001u);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.to_string(), "10.0.0.1");
}

class BadV4 : public ::testing::TestWithParam<const char*> {};

TEST_P(BadV4, Rejected) {
  EXPECT_FALSE(IpAddress::parse(GetParam()).has_value()) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Cases, BadV4,
                         ::testing::Values("", "1.2.3", "1.2.3.4.5", "256.1.1.1",
                                           "1.2.3.x", "1..2.3", "-1.2.3.4",
                                           "1.2.3.1000", "a.b.c.d"));

TEST(IpV6, ParseFull) {
  const auto ip = IpAddress::parse("2001:0db8:0000:0000:0000:0000:0000:0001");
  ASSERT_TRUE(ip.has_value());
  EXPECT_TRUE(ip->is_v6());
  EXPECT_EQ(ip->to_string(), "2001:db8::1");
}

TEST(IpV6, ParseCompressed) {
  EXPECT_EQ(IpAddress::parse("::")->to_string(), "::");
  EXPECT_EQ(IpAddress::parse("::1")->to_string(), "::1");
  EXPECT_EQ(IpAddress::parse("fe80::")->to_string(), "fe80::");
  EXPECT_EQ(IpAddress::parse("2001:db8::8:800:200c:417a")->to_string(),
            "2001:db8::8:800:200c:417a");
}

TEST(IpV6, CanonicalCompressionPicksLongestRun) {
  // Two zero runs: the longer one is compressed.
  EXPECT_EQ(IpAddress::parse("1:0:0:2:0:0:0:3")->to_string(), "1:0:0:2::3");
  // A single zero group is not compressed.
  EXPECT_EQ(IpAddress::parse("1:0:2:3:4:5:6:7")->to_string(),
            "1:0:2:3:4:5:6:7");
}

class BadV6 : public ::testing::TestWithParam<const char*> {};

TEST_P(BadV6, Rejected) {
  EXPECT_FALSE(IpAddress::parse(GetParam()).has_value()) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Cases, BadV6,
                         ::testing::Values("::1::2", "1:2:3:4:5:6:7",
                                           "1:2:3:4:5:6:7:8:9", "g::1",
                                           "12345::", "1:2:3:4:5:6:7::8"));

TEST(IpAddress, BitAccess) {
  const IpAddress ip = IpAddress::v4(0x80000001u);  // 128.0.0.1
  EXPECT_TRUE(ip.bit(0));
  EXPECT_FALSE(ip.bit(1));
  EXPECT_TRUE(ip.bit(31));
}

TEST(IpAddress, Masking) {
  const IpAddress ip = IpAddress::v4(192, 168, 31, 201);
  EXPECT_EQ(ip.masked(24).to_string(), "192.168.31.0");
  EXPECT_EQ(ip.masked(16).to_string(), "192.168.0.0");
  EXPECT_EQ(ip.masked(20).to_string(), "192.168.16.0");
  EXPECT_EQ(ip.masked(0).to_string(), "0.0.0.0");
  EXPECT_EQ(ip.masked(32), ip);
}

TEST(IpAddress, Slash24GroupsLikeThePaper) {
  const auto a = IpAddress::parse("142.250.180.3").value();
  const auto b = IpAddress::parse("142.250.180.77").value();
  const auto c = IpAddress::parse("142.250.181.3").value();
  EXPECT_EQ(a.slash24(), b.slash24());
  EXPECT_NE(a.slash24(), c.slash24());
}

TEST(IpAddress, FormatIntoABufferMatchesToString) {
  // rtt_to hashes format()'s bytes, so they must be exactly to_string's:
  // dotted quad for v4, RFC 5952 for v6 (the /48s it hashes included).
  for (const char* text :
       {"0.0.0.0", "9.10.99.100", "255.255.255.255", "142.250.180.0", "::",
        "::1", "1::", "2001:db8::1", "2001:db8:0:1:1:1:1:1",
        "2001:db8::1:0:0:1", "1:0:0:2::3", "fe80::1:abcd",
        "ffff:ffff:ffff:ffff:ffff:ffff:ffff:ffff", "2001:db8:85a3::"}) {
    SCOPED_TRACE(text);
    const IpAddress ip = IpAddress::parse(text).value();
    IpAddress::TextBuffer buffer;
    EXPECT_EQ(ip.format(buffer), text);
    EXPECT_EQ(ip.to_string(), text);
  }
  const IpAddress v6 = IpAddress::parse("2001:db8:85a3:8d3:1319:8a2e::7")
                           .value();
  IpAddress::TextBuffer buffer;
  EXPECT_EQ(v6.slash24().format(buffer), "2001:db8:85a3::");
  EXPECT_EQ(v6.slash24().format(buffer), v6.slash24().to_string());
  const IpAddress v4 = IpAddress::parse("142.250.180.77").value();
  EXPECT_EQ(v4.slash24().format(buffer), "142.250.180.0");
}

TEST(IpAddress, OrderingAndEquality) {
  const IpAddress a = IpAddress::v4(1, 2, 3, 4);
  const IpAddress b = IpAddress::v4(1, 2, 3, 5);
  EXPECT_LT(a, b);
  EXPECT_NE(a, b);
  EXPECT_EQ(a, IpAddress::v4(1, 2, 3, 4));
  // v4 sorts before v6.
  EXPECT_LT(a, IpAddress::parse("::1").value());
}

TEST(IpAddress, Hashable) {
  std::unordered_set<IpAddress> set;
  set.insert(IpAddress::v4(1, 2, 3, 4));
  set.insert(IpAddress::v4(1, 2, 3, 4));
  set.insert(IpAddress::v4(1, 2, 3, 5));
  EXPECT_EQ(set.size(), 2u);
}

TEST(Prefix, ParseAndContains) {
  const auto p = Prefix::parse("10.1.0.0/16");
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->to_string(), "10.1.0.0/16");
  EXPECT_TRUE(p->contains(IpAddress::v4(10, 1, 200, 3)));
  EXPECT_FALSE(p->contains(IpAddress::v4(10, 2, 0, 1)));
  EXPECT_FALSE(p->contains(IpAddress::parse("::1").value()));
}

TEST(Prefix, BaseIsMasked) {
  const Prefix p{IpAddress::v4(10, 1, 2, 3), 8};
  EXPECT_EQ(p.base().to_string(), "10.0.0.0");
}

TEST(Prefix, ParseErrors) {
  EXPECT_FALSE(Prefix::parse("10.0.0.0").has_value());
  EXPECT_FALSE(Prefix::parse("10.0.0.0/33").has_value());
  EXPECT_FALSE(Prefix::parse("10.0.0.0/-1").has_value());
  EXPECT_FALSE(Prefix::parse("10.0.0.0/x").has_value());
  EXPECT_TRUE(Prefix::parse("::/0").has_value());
  EXPECT_FALSE(Prefix::parse("::/129").has_value());
}

TEST(Endpoint, FormattingAndOrdering) {
  const Endpoint a{IpAddress::v4(1, 2, 3, 4), 443};
  const Endpoint b{IpAddress::v4(1, 2, 3, 4), 8443};
  EXPECT_EQ(a.to_string(), "1.2.3.4:443");
  EXPECT_EQ((Endpoint{IpAddress::parse("::1").value(), 443}).to_string(),
            "[::1]:443");
  EXPECT_NE(a, b);
  EXPECT_LT(a, b);
}

}  // namespace
}  // namespace h2r::net

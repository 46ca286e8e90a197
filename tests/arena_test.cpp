// The hot-path memory model, pinned (DESIGN §12).
//
// Unit half: util::Arena bump/reset/chunk-reuse semantics.
//
// Equivalence half: the per-site arena + interner + SoA classifier sweep
// is a pure OPTIMIZATION — ClassifyContext, reused across sites on its
// rewound arena, and classify_site() must reproduce the heap-only
// reference sweep exactly.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/classify.hpp"
#include "net/ip.hpp"
#include "util/arena.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace h2r {
namespace {

// ------------------------------------------------------------ unit half

TEST(Arena, BumpAllocatesAligned) {
  util::Arena arena{1024};
  void* a = arena.allocate(3, 1);
  void* b = arena.allocate(8, 8);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(b) % 8, 0u);
  EXPECT_GE(arena.bytes_used(), 11u);
}

TEST(Arena, ResetRewindsWithoutReleasingChunks) {
  util::Arena arena{512};
  for (int i = 0; i < 64; ++i) (void)arena.allocate(64, 8);
  const std::size_t chunks = arena.chunk_count();
  EXPECT_GT(chunks, 1u);
  arena.reset();
  EXPECT_EQ(arena.bytes_used(), 0u);
  // A same-shaped second "site" must fit in the chunks already owned.
  for (int i = 0; i < 64; ++i) (void)arena.allocate(64, 8);
  EXPECT_EQ(arena.chunk_count(), chunks);
}

TEST(Arena, OversizedRequestGetsDedicatedChunk) {
  util::Arena arena{256};
  void* big = arena.allocate(64 * 1024, 16);
  ASSERT_NE(big, nullptr);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(big) % 16, 0u);
  // And the arena keeps serving small allocations afterwards.
  EXPECT_NE(arena.allocate(16, 8), nullptr);
}

TEST(Arena, VectorsGrowInsideTheArena) {
  util::Arena arena;
  util::ArenaVector<std::uint32_t> v{util::ArenaAllocator<std::uint32_t>(
      &arena)};
  for (std::uint32_t i = 0; i < 10000; ++i) v.push_back(i);
  for (std::uint32_t i = 0; i < 10000; ++i) ASSERT_EQ(v[i], i);
  EXPECT_GT(arena.bytes_used(), 10000u * sizeof(std::uint32_t));
}

// ----------------------------------- classifier context equivalence

net::IpAddress ip(const std::string& s) {
  return net::IpAddress::parse(s).value();
}

/// Random site with enough structural variety (wildcards, exclusions,
/// origin sets, close times, shared endpoints) to exercise every branch
/// of the sweep.
core::SiteObservation random_site(util::Rng& rng, std::size_t index) {
  static const char* kDomains[] = {"cdn.ex",     "ads.ex",  "img.Ex",
                                   "api.ex",     "tags.ex", "SSO.ex",
                                   "static.two", "two"};
  core::SiteObservation site;
  site.site_url = "https://site-" + std::to_string(index) + ".test";
  const std::size_t conns = rng.uniform(0, 7);
  util::SimTime open = 10;
  for (std::size_t c = 0; c < conns; ++c) {
    core::ConnectionRecord rec;
    rec.id = c + 1;
    rec.endpoint =
        net::Endpoint{ip("10.0.0." + std::to_string(rng.uniform(1, 4))),
                      static_cast<std::uint16_t>(443)};
    rec.initial_domain = kDomains[rng.index(8)];
    rec.has_certificate = rng.chance(0.9);
    switch (rng.index(4)) {
      case 0: rec.san_dns_names = {"*.ex", "two"}; break;
      case 1: rec.san_dns_names = {rec.initial_domain}; break;
      case 2: rec.san_dns_names = {"*.Two", "CDN.EX"}; break;
      default: rec.san_dns_names = {}; break;
    }
    rec.issuer_organization = "CA";
    open += static_cast<util::SimTime>(rng.uniform(0, 50));
    rec.opened_at = open;
    if (rng.chance(0.4)) {
      rec.closed_at =
          rec.opened_at + static_cast<util::SimTime>(rng.uniform(1, 300));
    }
    core::RequestRecord req;
    req.started_at = rec.opened_at;
    req.finished_at = rec.opened_at + static_cast<util::SimTime>(
                                          rng.uniform(1, 100));
    req.domain = rec.initial_domain;
    rec.requests.push_back(req);
    if (rng.chance(0.2)) rec.excluded_domains.push_back(kDomains[rng.index(8)]);
    if (rng.chance(0.2)) {
      rec.origin_set = std::vector<std::string>{"cdn.ex", "two", "img.ex"};
    }
    site.connections.push_back(std::move(rec));
  }
  return site;
}

void expect_same_classification(const core::SiteClassification& got,
                                const core::SiteClassification& want) {
  EXPECT_EQ(got.site_url, want.site_url);
  EXPECT_EQ(got.total_connections, want.total_connections);
  ASSERT_EQ(got.findings.size(), want.findings.size());
  for (std::size_t i = 0; i < got.findings.size(); ++i) {
    EXPECT_EQ(got.findings[i].connection_index,
              want.findings[i].connection_index);
    EXPECT_EQ(got.findings[i].causes, want.findings[i].causes);
    EXPECT_EQ(got.findings[i].reusable_previous_domains,
              want.findings[i].reusable_previous_domains);
  }
}

/// Reference implementation: the pre-table sweep, kept verbatim so the
/// SoA path has an executable spec to diff against.
core::SiteClassification classify_reference(
    const core::SiteObservation& site, const core::Policy& options) {
  core::SiteClassification result;
  result.site_url = site.site_url;
  result.total_connections = site.connections.size();
  const auto& conns = site.connections;
  for (std::size_t i = 0; i < conns.size(); ++i) {
    const core::ConnectionRecord& current = conns[i];
    const std::string domain = util::to_lower(current.initial_domain);
    core::ConnectionFinding finding;
    finding.connection_index = i;
    for (std::size_t j = 0; j < i; ++j) {
      const core::ConnectionRecord& prev = conns[j];
      if (!availability(prev, options.duration).contains(current.opened_at)) {
        continue;
      }
      if (prev.excludes(domain)) continue;
      const bool same_endpoint = prev.endpoint == current.endpoint;
      const bool covers = prev.certificate_covers(domain);
      const bool same_initial_domain =
          util::to_lower(prev.initial_domain) == domain;
      core::Cause cause;
      if (same_endpoint) {
        cause = covers ? core::Cause::kCred : core::Cause::kCert;
      } else if (same_initial_domain) {
        cause = core::Cause::kCred;
      } else if (covers) {
        cause = core::Cause::kIp;
      } else {
        continue;
      }
      finding.causes.insert(cause);
      finding.reusable_previous_domains[cause].insert(
          util::to_lower(prev.initial_domain));
    }
    if (!finding.causes.empty()) result.findings.push_back(std::move(finding));
  }
  return result;
}

class ArenaSeeds : public ::testing::TestWithParam<std::uint64_t> {};

// Arena on: a context reused for every site on its rewound arena, and
// classify_site(). Arena off: the heap-only reference sweep both match.
TEST_P(ArenaSeeds, ContextMatchesReferenceWithArenaOnAndOff) {
  util::Rng rng{GetParam()};
  core::ClassifyContext context;
  for (std::size_t s = 0; s < 200; ++s) {
    const core::SiteObservation site = random_site(rng, s);
    context.prepare(site);
    for (const core::DurationModel model :
         {core::DurationModel::kExact, core::DurationModel::kEndless,
          core::DurationModel::kImmediate}) {
      const core::SiteClassification want = classify_reference(site, {model});
      SCOPED_TRACE("site=" + std::to_string(s) + " model=" +
                   core::to_string(model));
      expect_same_classification(context.classify({model}), want);
      expect_same_classification(core::classify_site(site, {model}), want);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ArenaSeeds,
                         ::testing::Values(11u, 22u, 33u, 44u, 55u));

}  // namespace
}  // namespace h2r

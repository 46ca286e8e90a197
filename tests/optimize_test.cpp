// Tests for the counterfactual reuse maximizer (`h2r optimize`, DESIGN
// §14): the pinned golden ranking, the determinism contract (bit-identical
// JSON across thread counts), the rate-0 fault differential, and the cross-validation that anchors the
// whole replay design — the ORIGIN-frame policy replay must reproduce a
// REAL ORIGIN-enabled re-crawl connection-for-connection.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "browser/crawl.hpp"
#include "core/classify.hpp"
#include "core/policy.hpp"
#include "json/json.hpp"
#include "optimize/optimize.hpp"
#include "web/catalog.hpp"
#include "web/sitegen.hpp"

namespace h2r {
namespace {

optimize::OptimizeConfig small_config() {
  optimize::OptimizeConfig config;
  config.sites = 120;
  config.seed = 42;
  config.threads = 3;
  return config;
}

/// The golden run is shared between the pinned tests; computing it once
/// keeps the suite at one crawl instead of one per TEST.
const optimize::OptimizeResults& golden_optimize() {
  static const optimize::OptimizeResults results =
      optimize::run_optimize(small_config());
  return results;
}

/// One line per policy point, best first. Everything a ranking consumer
/// reads is on the line, so a regression anywhere in the sweep shows up
/// as a readable diff.
std::string ranking_lines(const optimize::OptimizeResults& results) {
  std::string out;
  int rank = 1;
  for (const optimize::PolicyOutcome& outcome : results.ranked) {
    char line[192];
    std::snprintf(line, sizeof line,
                  "#%02d mask=%02u recovered=%llu remaining=%llu %s\n", rank++,
                  static_cast<unsigned>(outcome.policy.mask()),
                  static_cast<unsigned long long>(outcome.tally.recovered),
                  static_cast<unsigned long long>(
                      outcome.tally.remaining_redundant),
                  outcome.policy.label().c_str());
    out += line;
  }
  return out;
}

// ------------------------------------------------------------------
// Pinned golden ranking (sites=120, seed=42).

TEST(OptimizeGolden, PinnedRanking) {
  const optimize::OptimizeResults& results = golden_optimize();
  ASSERT_EQ(results.ranked.size(), 16u) << "2^4 policy points";

  const std::string expected =
      "#01 mask=13 recovered=774 remaining=0 "
      "+origin_frame+cert_consolidation+ignore_credentials\n"
      "#02 mask=14 recovered=774 remaining=41 "
      "+sync_dns+cert_consolidation+ignore_credentials\n"
      "#03 mask=15 recovered=774 remaining=0 "
      "+origin_frame+sync_dns+cert_consolidation+ignore_credentials\n"
      "#04 mask=05 recovered=606 remaining=168 "
      "+origin_frame+cert_consolidation\n"
      "#05 mask=06 recovered=606 remaining=209 "
      "+sync_dns+cert_consolidation\n"
      "#06 mask=07 recovered=606 remaining=168 "
      "+origin_frame+sync_dns+cert_consolidation\n"
      "#07 mask=09 recovered=524 remaining=27 "
      "+origin_frame+ignore_credentials\n"
      "#08 mask=10 recovered=524 remaining=68 "
      "+sync_dns+ignore_credentials\n"
      "#09 mask=11 recovered=524 remaining=27 "
      "+origin_frame+sync_dns+ignore_credentials\n"
      "#10 mask=01 recovered=376 remaining=177 +origin_frame\n"
      "#11 mask=02 recovered=376 remaining=218 +sync_dns\n"
      "#12 mask=03 recovered=376 remaining=177 +origin_frame+sync_dns\n"
      "#13 mask=12 recovered=179 remaining=636 "
      "+cert_consolidation+ignore_credentials\n"
      "#14 mask=08 recovered=145 remaining=453 +ignore_credentials\n"
      "#15 mask=04 recovered=33 remaining=782 +cert_consolidation\n"
      "#16 mask=00 recovered=0 remaining=598 baseline\n";
  EXPECT_EQ(ranking_lines(results), expected);
}

TEST(OptimizeGolden, PinnedBaselineAndSummary) {
  const optimize::OptimizeResults& results = golden_optimize();
  EXPECT_EQ(results.summary.sites_visited, 117u);
  EXPECT_EQ(results.summary.sites_unreachable, 3u);

  ASSERT_FALSE(results.ranked.empty());
  const core::PolicyTally& best = results.ranked.front().tally;
  EXPECT_EQ(best.sites, 117u);
  EXPECT_EQ(best.baseline_connections, 1812u);
  EXPECT_EQ(best.baseline_redundant, 598u);

  // The baseline policy point and the baseline aggregate agree.
  const optimize::PolicyOutcome& baseline = results.ranked.back();
  EXPECT_EQ(baseline.policy.mask(), 0u);
  EXPECT_EQ(baseline.tally.recovered, 0u);
  EXPECT_EQ(baseline.tally.remaining_redundant, 598u);
}

TEST(OptimizeGolden, OperatorCreditNamesTheConsolidators) {
  // The recovered-connection credit singles out the operators whose
  // deployment choices the interventions counteract; google's sharded
  // clusters dominate by construction of the universe.
  const optimize::OptimizeResults& results = golden_optimize();
  const core::PolicyTally& best = results.ranked.front().tally;
  ASSERT_FALSE(best.recovered_by_operator.empty());
  auto top = best.recovered_by_operator.begin();
  for (auto it = best.recovered_by_operator.begin();
       it != best.recovered_by_operator.end(); ++it) {
    if (it->second > top->second) top = it;
  }
  EXPECT_EQ(top->first, "google");
  EXPECT_EQ(top->second, 551u);
}

TEST(OptimizeGolden, RankingOrderIsRecoveredThenCheapest) {
  const optimize::OptimizeResults& results = golden_optimize();
  for (std::size_t i = 1; i < results.ranked.size(); ++i) {
    const optimize::PolicyOutcome& a = results.ranked[i - 1];
    const optimize::PolicyOutcome& b = results.ranked[i];
    if (a.tally.recovered != b.tally.recovered) {
      EXPECT_GT(a.tally.recovered, b.tally.recovered);
    } else if (a.policy.knob_count() != b.policy.knob_count()) {
      EXPECT_LT(a.policy.knob_count(), b.policy.knob_count());
    } else {
      EXPECT_LT(a.policy.mask(), b.policy.mask());
    }
  }
}

// ------------------------------------------------------------------
// Determinism contract: the JSON document is bit-identical across
// thread counts.

optimize::OptimizeConfig determinism_config() {
  optimize::OptimizeConfig config;
  config.sites = 40;
  config.seed = 42;
  return config;
}

TEST(OptimizeDeterminism, JsonIdenticalAcrossThreadsAndStreaming) {
  // Every sweep streams; the thread count is the only execution knob left.
  std::string reference;
  for (unsigned threads : {1u, 2u, 7u}) {
    optimize::OptimizeConfig config = determinism_config();
    config.threads = threads;
    const std::string doc =
        json::write(optimize::to_json(optimize::run_optimize(config)));
    if (reference.empty()) {
      reference = doc;
      ASSERT_FALSE(reference.empty());
    } else {
      EXPECT_EQ(doc, reference) << "threads=" << threads;
    }
  }
}

TEST(OptimizeDeterminism, RateZeroFaultsMatchNoFaults) {
  // The replay is only exact at fault rate 0 (fresh-connection fault
  // retries are not identifiable in the cached records) — but a rate-0
  // FaultConfig must be indistinguishable from no fault config at all.
  const optimize::OptimizeConfig plain = determinism_config();
  optimize::OptimizeConfig zeroed = determinism_config();
  zeroed.faults = fault::FaultConfig::uniform(0.0);
  EXPECT_EQ(json::write(optimize::to_json(optimize::run_optimize(zeroed))),
            json::write(optimize::to_json(optimize::run_optimize(plain))));
}

// ------------------------------------------------------------------
// Cross-validation: the ORIGIN-frame replay against a REAL re-crawl.

struct SiteStat {
  bool reachable = false;
  std::uint64_t total_connections = 0;
  std::uint64_t redundant_connections = 0;
};

/// Crawls an announce-on universe (every cluster deploys RFC 8336 ORIGIN
/// frames). With `support_origin_frame` off the browser ignores them
/// (Chromium behavior) and the per-site stats come from the policy
/// replay; with it on the browser coalesces for real and the stats are
/// the plain exact classification.
std::vector<SiteStat> crawl_origin_universe(std::size_t sites,
                                            bool support_origin_frame) {
  constexpr std::uint64_t kSeed = 42;
  web::Ecosystem eco{kSeed};
  web::ServiceCatalog catalog{eco, kSeed, 160,
                              /*announce_origin_frames=*/true};
  web::UniverseConfig config = web::UniverseConfig::defaults();
  config.seed = kSeed;
  config.announce_origin_frames = true;
  web::SiteUniverse universe{eco, catalog, config};

  browser::CrawlOptions crawl;
  crawl.browser.follow_fetch_credentials = true;
  crawl.browser.support_origin_frame = support_origin_frame;
  crawl.browser.vantage_region = "eu";
  crawl.seed = kSeed + 1;

  core::ClassifyContext ctx;
  const core::Policy origin = core::Policy::with_mask(core::kKnobOriginFrame);
  std::vector<SiteStat> stats;
  browser::crawl_range(universe, 0, sites, crawl,
                       [&](const browser::SiteResult& site) {
                         SiteStat stat;
                         stat.reachable = site.reachable;
                         if (site.reachable) {
                           ctx.prepare(site.netlog_observation);
                           const core::SiteClassification& cls = ctx.classify(
                               support_origin_frame
                                   ? core::Policy{core::DurationModel::kExact}
                                   : origin);
                           stat.total_connections = cls.total_connections;
                           stat.redundant_connections =
                               cls.redundant_connections();
                         }
                         stats.push_back(stat);
                       });
  return stats;
}

TEST(OptimizeCrossValidation, OriginReplayMatchesRealRecrawl) {
  constexpr std::size_t kSites = 40;
  const std::vector<SiteStat> replayed =
      crawl_origin_universe(kSites, /*support_origin_frame=*/false);
  const std::vector<SiteStat> real =
      crawl_origin_universe(kSites, /*support_origin_frame=*/true);
  ASSERT_EQ(replayed.size(), real.size());

  std::uint64_t replay_total = 0;
  std::uint64_t real_total = 0;
  for (std::size_t rank = 0; rank < replayed.size(); ++rank) {
    ASSERT_EQ(replayed[rank].reachable, real[rank].reachable)
        << "rank " << rank;
    EXPECT_EQ(replayed[rank].total_connections,
              real[rank].total_connections)
        << "rank " << rank;
    EXPECT_EQ(replayed[rank].redundant_connections,
              real[rank].redundant_connections)
        << "rank " << rank;
    replay_total += replayed[rank].total_connections;
    real_total += real[rank].total_connections;
  }
  EXPECT_EQ(replay_total, real_total);
  EXPECT_GT(real_total, 0u);
}

}  // namespace
}  // namespace h2r

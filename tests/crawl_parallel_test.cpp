// Differential proof of the crawl determinism contract: a crawl with
// threads = N produces bit-identical per-site observations, summaries and
// classified aggregates for ANY N, because every per-site input (page RNG,
// HAR quirk RNG, resolver cache state, simulated load time) is derived
// from (seed, site) alone — never from worker identity or load order.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "browser/crawl.hpp"
#include "core/classify.hpp"
#include "core/observation_json.hpp"
#include "core/report.hpp"
#include "fault/fault.hpp"
#include "json/json.hpp"
#include "obs/observer.hpp"
#include "web/catalog.hpp"
#include "web/ecosystem.hpp"
#include "web/sitegen.hpp"

namespace h2r::browser {
namespace {

constexpr std::size_t kSites = 30;

struct RunOutput {
  CrawlSummary summary;
  /// Serialized exact observation per rank (bit-identity proxy).
  std::vector<std::string> netlog_json;
  std::vector<std::string> har_json;
  /// Classified cause counts over the whole crawl (endless model).
  core::AggregateReport report;
};

RunOutput run_crawl(unsigned threads, std::uint64_t seed,
                    bool har_path = false,
                    const fault::FaultConfig& faults = {}) {
  web::Ecosystem eco{seed};
  web::ServiceCatalog catalog{eco, seed};
  web::SiteUniverse universe{eco, catalog};

  CrawlOptions options;
  options.threads = threads;
  options.seed = seed + 100;
  options.har_path = har_path;
  options.browser.faults = faults;

  RunOutput out;
  core::Aggregator aggregator;
  out.summary = crawl_range(
      universe, 0, kSites, options, [&](const SiteResult& site) {
        out.netlog_json.push_back(
            json::write(core::to_json(site.netlog_observation)));
        if (har_path) {
          out.har_json.push_back(
              json::write(core::to_json(site.har_observation)));
        }
        if (site.reachable) {
          aggregator.add_site(
              site.netlog_observation,
              core::classify_site(site.netlog_observation,
                                  {core::DurationModel::kEndless}));
        }
      });
  out.report = aggregator.report();
  return out;
}

void expect_identical(const RunOutput& a, const RunOutput& b,
                      unsigned threads) {
  SCOPED_TRACE("threads=" + std::to_string(threads));
  EXPECT_TRUE(a.summary == b.summary);
  EXPECT_EQ(a.report, b.report);
  ASSERT_EQ(a.netlog_json.size(), b.netlog_json.size());
  for (std::size_t i = 0; i < a.netlog_json.size(); ++i) {
    EXPECT_EQ(a.netlog_json[i], b.netlog_json[i]) << "rank " << i;
  }
  ASSERT_EQ(a.har_json.size(), b.har_json.size());
  for (std::size_t i = 0; i < a.har_json.size(); ++i) {
    EXPECT_EQ(a.har_json[i], b.har_json[i]) << "rank " << i;
  }
}

class CrawlParallelDifferential
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CrawlParallelDifferential, ThreadCountDoesNotChangeResults) {
  const std::uint64_t seed = GetParam();
  const RunOutput sequential = run_crawl(1, seed);
  for (const unsigned threads : {2u, 7u}) {
    expect_identical(sequential, run_crawl(threads, seed), threads);
  }
}

TEST_P(CrawlParallelDifferential, HarPathIsThreadCountInvariantToo) {
  // The HAR quirk RNG used to be per-worker sequential state; it is now
  // derived per site, so the noisy HAR path is deterministic as well.
  const std::uint64_t seed = GetParam();
  const RunOutput sequential = run_crawl(1, seed, /*har_path=*/true);
  expect_identical(sequential, run_crawl(7, seed, /*har_path=*/true), 7);
}

TEST_P(CrawlParallelDifferential, FaultedCrawlIsThreadCountInvariantToo) {
  // The hard half of the fault layer's determinism contract: with faults
  // FIRING (not just armed), threads = N must still be bit-identical to
  // threads = 1 — per-site FaultPlans are derived from (fault seed,
  // browser seed, site url), never from worker identity. The merged
  // FailureSummary participates via CrawlSummary::operator==.
  const std::uint64_t seed = GetParam();
  const fault::FaultConfig faults = fault::FaultConfig::uniform(0.15);
  const RunOutput sequential = run_crawl(1, seed, /*har_path=*/false, faults);
  EXPECT_GT(sequential.summary.failures.total_injected(), 0u);
  EXPECT_EQ(sequential.summary.failures.fetch_attempts,
            sequential.summary.failures.successful_fetches +
                sequential.summary.failures.failed_fetches);
  for (const unsigned threads : {2u, 7u}) {
    const RunOutput parallel =
        run_crawl(threads, seed, /*har_path=*/false, faults);
    expect_identical(sequential, parallel, threads);
    EXPECT_TRUE(sequential.summary.failures == parallel.summary.failures);
  }
}

INSTANTIATE_TEST_SUITE_P(SeedSweep, CrawlParallelDifferential,
                         ::testing::Values(1u, 2u, 3u, 42u, 77u, 1234u));

/// Per-worker aggregation through crawl()'s Observer: each worker
/// classifies its own sites into its own shard, merged afterwards.
class ShardedAggregator final : public obs::Observer {
 public:
  void begin(unsigned workers) override {
    while (shards_.size() < workers) {
      shards_.push_back(std::make_unique<core::Aggregator>());
    }
  }

  void site(unsigned worker, SiteResult& site) override {
    if (!site.reachable) return;
    shards_[worker]->add_site(
        site.netlog_observation,
        core::classify_site(site.netlog_observation,
                            {core::DurationModel::kEndless}));
  }

  core::AggregateReport merged() const {
    core::AggregateReport report;
    for (const auto& shard : shards_) report.merge(shard->report());
    return report;
  }

 private:
  std::vector<std::unique_ptr<core::Aggregator>> shards_;
};

TEST(CrawlParallel, ShardedCrawlEqualsOrderedCrawl) {
  // crawl() with a per-worker aggregating Observer (merged afterwards)
  // must reproduce the rank-ordered sink accumulation exactly.
  const std::uint64_t seed = 42;
  const RunOutput sequential = run_crawl(1, seed);

  web::Ecosystem eco{seed};
  web::ServiceCatalog catalog{eco, seed};
  web::SiteUniverse universe{eco, catalog};
  CrawlOptions options;
  options.threads = 5;
  options.seed = seed + 100;
  ShardedAggregator observer;
  options.observer = &observer;

  const CrawlSummary summary = crawl(universe, 0, kSites, options);
  EXPECT_TRUE(summary == sequential.summary);
  EXPECT_EQ(observer.merged(), sequential.report);
}

TEST(CrawlParallel, WorkerCountersAccountForEverySite) {
  web::Ecosystem eco{7};
  web::ServiceCatalog catalog{eco, 7};
  web::SiteUniverse universe{eco, catalog};
  CrawlOptions options;
  options.threads = 3;
  const CrawlSummary summary =
      crawl_range(universe, 0, kSites, options, [](const SiteResult&) {});

  ASSERT_EQ(summary.per_worker.size(), 3u);
  std::uint64_t loaded = 0;
  std::uint64_t unreachable = 0;
  std::uint64_t connections = 0;
  std::uint64_t chunks = 0;
  for (const WorkerCounters& worker : summary.per_worker) {
    loaded += worker.sites_loaded;
    unreachable += worker.sites_unreachable;
    connections += worker.connections_opened;
    chunks += worker.chunks_claimed;
  }
  EXPECT_EQ(loaded, summary.sites_visited);
  EXPECT_EQ(unreachable, summary.sites_unreachable);
  EXPECT_EQ(connections, summary.connections_opened);
  EXPECT_GE(chunks, 1u);
  EXPECT_FALSE(describe_workers(summary).empty());
}

}  // namespace
}  // namespace h2r::browser

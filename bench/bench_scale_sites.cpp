// Streaming-scale bench: sites/second and peak RSS of the streaming crawl
// engine at 10k / 100k sites (pass --sites for other scales, e.g. 1M).
//
// Unlike the table benches this does NOT run the three-campaign study — it
// measures the crawl layer itself, which is the layer the bounded-memory
// claim is about: every worker regenerates each site on demand instead of
// holding the population, and the per-worker aggregates are
// histogram-budgeted, so peak memory is independent of the site count.
//
//   bench_scale_sites [--sites N]... [--threads N] [--json <out>]
//
// Environment:
//   H2R_THREADS        worker threads (flag overrides; not clamped here)
//   H2R_HIST_BUDGET    histogram bin budget (default 64 here; 0 = exact)
//   H2R_RSS_BUDGET_MB  exit non-zero when the process's peak RSS (VmHWM)
//                      exceeds this after the sweep — the CI scale job
//                      sets this to enforce the bounded-memory contract.
//
// Timing comes from the crawl's own diagnostic wall clock
// (CrawlSummary::wall_ms); RSS from obs::peak_rss_kib(). Both are
// machine-dependent diagnostics — the measured aggregates stay
// bit-identical for every thread count regardless.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "browser/crawl.hpp"
#include "core/classify.hpp"
#include "core/report.hpp"
#include "json/json.hpp"
#include "obs/observer.hpp"
#include "obs/process.hpp"
#include "util/env.hpp"
#include "util/format.hpp"
#include "web/catalog.hpp"
#include "web/ecosystem.hpp"
#include "web/sitegen.hpp"

using namespace h2r;

namespace {

struct ScalePoint {
  std::size_t sites = 0;
  double wall_ms = 0.0;
  double sites_per_sec = 0.0;
  std::uint64_t h2_sites = 0;
  std::uint64_t connections = 0;
  std::uint64_t peak_rss_kib = 0;  // process high-water mark AFTER this scale
};

/// Per-worker budgeted aggregators fed by crawl()'s Observer, merged
/// after the crawl.
class ShardedAggregator final : public obs::Observer {
 public:
  ShardedAggregator(const asdb::AsDatabase* as_db, std::uint32_t hist_budget)
      : as_db_(as_db), hist_budget_(hist_budget) {}

  void begin(unsigned workers) override {
    while (shards_.size() < workers) {
      shards_.push_back(
          std::make_unique<core::Aggregator>(as_db_, hist_budget_));
    }
  }

  void site(unsigned worker, browser::SiteResult& site) override {
    if (!site.reachable) return;
    const auto& obs = site.netlog_observation;
    shards_[worker]->add_site(
        obs, core::classify_site(obs, {core::DurationModel::kExact}));
  }

  core::AggregateReport merged() const {
    core::AggregateReport report;
    for (const auto& shard : shards_) report.merge(shard->report());
    return report;
  }

 private:
  const asdb::AsDatabase* as_db_;
  std::uint32_t hist_budget_;
  std::vector<std::unique_ptr<core::Aggregator>> shards_;
};

/// One crawl over ranks [0, sites): fresh universe, per-worker budgeted
/// aggregators, no journaling. Returns the measured point.
ScalePoint run_scale(std::size_t sites, unsigned threads,
                     std::uint32_t hist_budget) {
  const std::uint64_t seed = 42;
  web::Ecosystem eco{seed};
  web::ServiceCatalog catalog{eco, seed};
  web::UniverseConfig universe_config = web::UniverseConfig::defaults();
  universe_config.seed = seed;
  universe_config.top_rank = std::max<std::size_t>(sites / 2, 1);
  universe_config.tail_rank = std::max<std::size_t>(sites, 2);
  web::SiteUniverse universe{eco, catalog, universe_config};

  ShardedAggregator aggregator{&eco.as_database(), hist_budget};
  browser::CrawlOptions crawl;
  crawl.browser.follow_fetch_credentials = true;
  crawl.browser.vantage_region = "eu";
  crawl.seed = seed + 1;
  crawl.threads = threads;
  crawl.har_path = false;
  crawl.observer = &aggregator;

  const browser::CrawlSummary summary =
      browser::crawl(universe, 0, sites, crawl);
  const core::AggregateReport report = aggregator.merged();

  ScalePoint point;
  point.sites = sites;
  point.wall_ms = summary.wall_ms;
  point.sites_per_sec = summary.wall_ms > 0.0
                            ? static_cast<double>(sites) /
                                  (summary.wall_ms / 1000.0)
                            : 0.0;
  point.h2_sites = report.h2_sites;
  point.connections = report.total_connections;
  point.peak_rss_kib = obs::peak_rss_kib();
  return point;
}

}  // namespace

int main(int argc, char** argv) try {
  util::reject_unknown_env();
  std::vector<std::size_t> scales;
  const char* json_out = nullptr;
  unsigned threads = util::env("H2R_THREADS", 4u);
  const std::uint32_t hist_budget =
      util::env("H2R_HIST_BUDGET", std::uint32_t{64});
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--sites") == 0 && i + 1 < argc) {
      scales.push_back(util::parse_count("--sites", argv[++i]));
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      threads = util::parse_flag<unsigned>("H2R_THREADS", "--threads",
                                           argv[++i]);
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_out = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: bench_scale_sites [--sites N]... [--threads N] "
                   "[--json <out>]\n");
      return 2;
    }
  }
  if (scales.empty()) scales = {10'000, 100'000};

  std::printf("# streaming-crawl scale sweep: %u thread(s), histogram budget "
              "%u bin(s)\n"
              "# peak RSS is the PROCESS high-water mark, so it only ever "
              "grows across the sweep (run scales ascending)\n\n",
              threads, hist_budget);
  std::printf("%12s %12s %14s %12s %14s %14s\n", "sites", "wall ms",
              "sites/sec", "h2 sites", "connections", "peak RSS MiB");

  std::vector<ScalePoint> points;
  for (const std::size_t sites : scales) {
    const ScalePoint point = run_scale(sites, threads, hist_budget);
    std::printf("%12zu %12.0f %14.0f %12s %14s %14.1f\n", point.sites,
                point.wall_ms, point.sites_per_sec,
                util::human_count(point.h2_sites).c_str(),
                util::human_count(point.connections).c_str(),
                static_cast<double>(point.peak_rss_kib) / 1024.0);
    points.push_back(point);
  }

  if (json_out != nullptr) {
    json::Array scale_points;
    for (const ScalePoint& point : points) {
      json::Object entry;
      entry.set("sites", static_cast<std::int64_t>(point.sites));
      entry.set("wall_ms", point.wall_ms);
      entry.set("sites_per_sec", point.sites_per_sec);
      entry.set("h2_sites", static_cast<std::int64_t>(point.h2_sites));
      entry.set("connections", static_cast<std::int64_t>(point.connections));
      entry.set("peak_rss_kib",
                static_cast<std::int64_t>(point.peak_rss_kib));
      scale_points.push_back(json::Value{std::move(entry)});
    }
    json::Object root;
    root.set("bench", "scale_sites");
    root.set("threads", static_cast<std::int64_t>(threads));
    root.set("hist_budget", static_cast<std::int64_t>(hist_budget));
    root.set("scales", std::move(scale_points));
    const auto written = json::write_file(
        json_out, json::Value{std::move(root)}, /*pretty=*/true);
    if (!written) {
      std::fprintf(stderr, "%s\n", written.error().message.c_str());
      return 1;
    }
    std::printf("\n# wrote %s\n", json_out);
  }

  // The CI memory guard: a streaming sweep must fit the documented budget.
  const std::uint64_t budget_mb =
      util::env("H2R_RSS_BUDGET_MB", std::uint64_t{0});
  if (budget_mb > 0) {
    const std::uint64_t rss_kib = obs::peak_rss_kib();
    if (rss_kib == 0) {
      std::printf("\n# H2R_RSS_BUDGET_MB set but peak RSS is unavailable on "
                  "this platform; guard skipped\n");
    } else if (rss_kib > budget_mb * 1024) {
      std::fprintf(stderr,
                   "\npeak RSS %.1f MiB exceeds the H2R_RSS_BUDGET_MB=%llu "
                   "budget\n",
                   static_cast<double>(rss_kib) / 1024.0,
                   static_cast<unsigned long long>(budget_mb));
      return 1;
    } else {
      std::printf("\n# peak RSS %.1f MiB within the %llu MiB budget\n",
                  static_cast<double>(rss_kib) / 1024.0,
                  static_cast<unsigned long long>(budget_mb));
    }
  }
  return 0;
} catch (const util::ConfigError& error) {
  std::fprintf(stderr, "%s\n", error.what());
  return 2;
}

// Crawl driver: visits a rank range of the site universe, producing
// per-site observations for both measurement paths:
//   * the NetLog path (exact lifecycles, the paper's own measurements),
//   * the HAR path (export with HTTP-Archive-grade noise, import through
//     the §4.3 filters — the paper's HTTP Archive analysis).
//
// Every crawl runs one way: N workers pull chunks from an atomic work
// queue, each behind its own browser and recursive resolver, and each
// generates its sites on demand from (universe seed, rank). Every
// per-site input is derived from (seed, site) alone — per-page RNG, HAR
// quirk RNG, resolver cache state and the simulated load time — so
// threads = N produces bit-identical results to threads = 1, for any N.
// The differential tests in tests/crawl_parallel_test.cpp pin exactly
// this contract.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "browser/browser.hpp"
#include "dns/vantage.hpp"
#include "har/export.hpp"
#include "har/import.hpp"
#include "obs/observer.hpp"
#include "web/sitegen.hpp"

namespace h2r::browser {

struct CrawlOptions {
  BrowserOptions browser;
  /// Resolver vantage point (index into dns::standard_vantage_points();
  /// 0 = the university resolver).
  std::size_t vantage_index = 0;
  /// Simulated time of the first page load.
  util::SimTime start_time = util::days(1);
  /// Pacing between page loads — spreads the crawl across DNS LB slots.
  util::SimTime site_interval = util::seconds(15);
  /// Build the HAR-path observation as well.
  bool har_path = false;
  har::ExportQuirks har_quirks;
  std::uint64_t seed = 1234;
  /// Crawl worker threads, clamped to the number of sites to visit. Each
  /// worker pulls chunks from an atomic work queue behind its own browser
  /// and recursive resolver, and each site is measured like a fresh
  /// machine (cold resolver cache, per-site RNG, deterministic load
  /// time), so results are IDENTICAL for every thread count.
  unsigned threads = 1;
  /// The one observation interface of the crawl: per-worker metric
  /// shards, per-site results, chunk checkpoints (see obs::Observer for
  /// the threading contract). Not owned; null = observe nothing.
  obs::Observer* observer = nullptr;
  /// The RELATIVE indices into [0, count) still to crawl, sorted
  /// ascending (a resumed study passes the complement of its journaled
  /// ranks). Null = all of [0, count). Each target keeps its original
  /// index-derived load time, so a resumed crawl reproduces the
  /// uninterrupted observations bit-for-bit.
  const std::vector<std::size_t>* targets = nullptr;
  /// Ignored: every crawl streams. perfbench/workload.cpp is its last writer.
  bool stream = false;
};

struct SiteResult {
  std::size_t rank = 0;
  bool reachable = true;
  /// Exact (NetLog) observation.
  core::SiteObservation netlog_observation;
  /// HAR-path observation (empty unless CrawlOptions::har_path).
  core::SiteObservation har_observation;
  /// Filter counts for this site's HAR import.
  har::ImportStats har_stats;
  PageLoadResult page;
};

/// Scheduling / load diagnostics for one crawl worker. Which worker
/// happens to claim which chunk is timing-dependent, so these counters
/// are NOT covered by the determinism contract (and are excluded from
/// CrawlSummary's operator==); their per-field SUMS across workers are.
struct WorkerCounters {
  std::uint64_t sites_loaded = 0;       // reachable sites this worker loaded
  std::uint64_t sites_unreachable = 0;
  std::uint64_t connections_opened = 0;
  std::uint64_t chunks_claimed = 0;     // work-queue grabs
  double wall_ms = 0.0;                 // worker loop wall time (real clock)
  double cpu_ms = 0.0;                  // worker thread CPU time
  double queue_wait_ms = 0.0;           // time spent claiming work
};

struct CrawlSummary {
  std::uint64_t sites_visited = 0;
  std::uint64_t sites_unreachable = 0;
  std::uint64_t connections_opened = 0;
  std::uint64_t group_reuses = 0;
  std::uint64_t alias_reuses = 0;
  std::uint64_t origin_frame_reuses = 0;
  std::uint64_t misdirected_retries = 0;
  /// Fault-layer ledger summed over every site of the crawl (including
  /// unreachable ones — a site that died to injected faults still counts
  /// its failures). All zero when fault injection is off.
  fault::FailureSummary failures;
  har::ImportStats har_stats;

  /// One entry per worker (index = worker id). Diagnostics only.
  // contract: exclude(eq, codec) -- scheduling diagnostic: which worker
  // claimed which chunk is timing-dependent; merge still concatenates it
  std::vector<WorkerCounters> per_worker;
  /// Wall time of the whole crawl (for crawl_range, including the
  /// ordered sink drain). Diagnostics only.
  // contract: diagnostic -- real-clock reading, quarantined from the
  // determinism contract (not merged, compared, or checkpointed)
  double wall_ms = 0.0;

  /// Folds a shard (another worker's or campaign's summary) into this
  /// one: measurement counters add, per-worker diagnostics concatenate.
  void merge(const CrawlSummary& shard);

  /// Compares the measurement counters only — per_worker and wall_ms are
  /// scheduling diagnostics and intentionally ignored.
  bool operator==(const CrawlSummary& other) const;
};

/// THE crawl entry point: visits ranks [first_rank, first_rank + count)
/// (or the subset in options.targets), reporting every observation
/// channel through options.observer — metric shards before the workers
/// start, per-site results and chunk checkpoints on the worker threads.
CrawlSummary crawl(web::SiteUniverse& universe, std::size_t first_rank,
                   std::size_t count, const CrawlOptions& options);

/// Rank-ordered convenience over crawl(): invokes `sink` for every site
/// of the range (reachable or not), in rank order, one call at a time (a
/// reorder buffer bridges claim order to rank order; whichever worker
/// completes the next rank drains the ready prefix). options.targets is
/// ignored — the whole range is visited — and options.observer must be
/// null (std::invalid_argument otherwise). Like crawl(), it throws on the
/// calling thread: a bad vantage index at once, an exception from the
/// sink once the workers have stopped.
CrawlSummary crawl_range(web::SiteUniverse& universe, std::size_t first_rank,
                         std::size_t count, const CrawlOptions& options,
                         const std::function<void(const SiteResult&)>& sink);

/// One completed work-queue chunk, reported to Observer::chunk on the
/// worker thread right after the chunk's last site. The campaign runner
/// serializes these into report windows and the crash journal:
/// everything committed for a chunk is recoverable after a kill.
struct ChunkEvent {
  unsigned worker = 0;
  /// Absolute (first_rank, count) runs the chunk covered, in crawl order.
  /// An unresumed crawl yields exactly one run per chunk; a resumed crawl
  /// skips journaled ranks, which can split a chunk around the holes.
  std::vector<std::pair<std::size_t, std::size_t>> ranges;
  /// Counters for exactly the chunk's sites.
  CrawlSummary summary;
};

/// Renders the per-worker counters of a crawl as a compact multi-line
/// text block ("worker 0: 812 sites, 5.3k conns, ..."), for tools/h2r and
/// the bench binaries. Includes the crawl wall time when available.
std::string describe_workers(const CrawlSummary& summary);

}  // namespace h2r::browser

// Replay crawl traffic through the edge-proxy upstream pool.
//
// Two phases, both deterministic:
//
//   1. Trace collection — a clean crawl (browser faults off) through the
//      parallel crawl worker pool, with an obs::Observer distilling each
//      site's NetLog observation into a SiteTrace: the Pingora pool keys
//      its connections resolved to, and every request's (key, relative
//      start/end) — the proxy-side view of the paper's traffic.
//   2. Pool simulation — each site is visited `visits` times on a paced
//      timeline; every request becomes one pool event routed to a
//      partition (kShared: by key hash; kWorker: by the virtual worker
//      that owns the client connection) and applied in a globally sorted
//      per-partition order. Threads only change which OS thread applies
//      which partition, never the order — so the report is bit-identical
//      across thread counts and (at fault rate 0) to a run with no
//      injection at all.
//
// Fault decisions are per-event FaultPlans seeded from (fault seed,
// site, visit, request) — pure functions of event identity, independent
// of partition layout and scheduling.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "browser/crawl.hpp"
#include "json/json.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "pool/pool.hpp"
#include "web/sitegen.hpp"

namespace h2r::proxy {

/// One request of a site's trace, relative to the page-load start.
struct TraceRequest {
  std::uint32_t key_index = 0;  // into SiteTrace::keys
  util::SimTime rel_start = 0;
  util::SimTime rel_end = 0;
  /// The original crawl recorded this request as errored (status 0);
  /// replayed as a natural in-request error (kills the pooled conn).
  bool natural_error = false;
};

/// The proxy-side distillation of one site's page load.
struct SiteTrace {
  std::size_t rank = 0;
  std::string url;
  std::vector<pool::PoolKey> keys;
  std::vector<TraceRequest> requests;
};

struct ReplayOptions {
  pool::PoolConfig pool;
  /// Phase-1 crawl options (seed, threads, vantage...). Browser faults
  /// are forced OFF for trace collection — the pool's own fault config
  /// (pool.faults) governs injection; observer is honored and chained.
  browser::CrawlOptions crawl;
  /// Phase-2 worker threads claiming partitions (0 = use crawl.threads).
  unsigned threads = 0;
};

struct ReplayReport {
  pool::Architecture arch = pool::Architecture::kShared;
  std::uint64_t sites = 0;
  std::uint64_t visits = 0;
  pool::PoolStats stats;
  std::uint64_t occupancy_peak = 0;
  obs::Metrics metrics;
  /// Minimal replay span tree ("proxy.replay" -> collect/simulate), in
  /// simulated time.
  obs::Trace trace;

  std::uint64_t served() const noexcept {
    return stats.reuse_hits + stats.fresh_connects;
  }
  /// 1 - fresh_connects / served requests: the share of served requests
  /// that rode an existing upstream connection.
  double reuse_rate() const noexcept {
    const std::uint64_t total = served();
    if (total == 0) return 0.0;
    return 1.0 - static_cast<double>(stats.fresh_connects) /
                     static_cast<double>(total);
  }

  /// Deterministic parts only (metrics equality already excludes the
  /// diagnostic domain).
  bool operator==(const ReplayReport&) const = default;
};

/// Phase 1: crawls ranks [first, first + count) and distills the
/// per-site pool traces (index = rank - first; unreachable sites leave
/// empty traces).
std::vector<SiteTrace> collect_traces(web::SiteUniverse& universe,
                                      std::size_t first, std::size_t count,
                                      const browser::CrawlOptions& options);

/// Phase 2: replays already-collected traces through the pool.
ReplayReport replay_traces(const std::vector<SiteTrace>& traces,
                           const ReplayOptions& options);

/// Strict deterministic export (sorted structure, diagnostic metrics
/// excluded) — CI byte-diffs this across thread counts.
json::Value to_json(const ReplayReport& report);

/// Human rendering: reuse rate, occupancy, eviction/breaker counters and
/// the fresh-connect cause table.
std::string render(const ReplayReport& report);

}  // namespace h2r::proxy

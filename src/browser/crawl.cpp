#include "browser/crawl.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <exception>
#include <map>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <time.h>
#include <utility>
#include <vector>

namespace h2r::browser {

namespace {

// AUDIT (PR 5): wall_now_ms / thread_cpu_ms are the only real-clock
// reads in the measurement path, and their values are quarantined to the
// diagnostic domain: they feed WorkerCounters.{wall,cpu,queue_wait}_ms
// and CrawlSummary.wall_ms, which are excluded from
// CrawlSummary::operator== and from every JSON export (report_to_json
// reads neither; obs::to_json drops the whole diagnostic domain). A leak
// into an exported metric would break the snapshot differentials in
// tests/metrics_determinism_test.cpp (MetricsDeterminism.*NoWallClockLeak*).
double wall_now_ms() {
  // h2r-lint: allow(ban.clock) -- diagnostic-domain worker wall time;
  // never reaches operator== or exported JSON (see AUDIT above).
  const auto now = std::chrono::steady_clock::now().time_since_epoch();
  return std::chrono::duration<double, std::milli>(now).count();
}

double thread_cpu_ms() {
#if defined(CLOCK_THREAD_CPUTIME_ID)
  timespec ts{};
  // h2r-lint: allow(ban.clock) -- diagnostic-domain worker CPU time;
  // never reaches operator== or exported JSON (see AUDIT above).
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) == 0) {
    return static_cast<double>(ts.tv_sec) * 1000.0 +
           static_cast<double>(ts.tv_nsec) / 1e6;
  }
#endif
  return 0.0;
}

/// Generates and loads the site at `rank`. Everything that feeds the
/// observation is derived from (options.seed, site) and the site's
/// deterministic load time: the browser's per-page RNG keys on the site
/// URL, the HAR quirk RNG is re-derived per site, and the resolver cache
/// is flushed so each site is measured from a cold cache (like a fresh
/// measurement machine). The result therefore does not depend on which
/// worker runs this, or on what that worker loaded before — the crawl's
/// determinism contract.
void process_site(const web::SiteUniverse& universe,
                  const CrawlOptions& options,
                  dns::RecursiveResolver& resolver, Browser& browser,
                  std::size_t rank, util::SimTime when, SiteResult& result) {
  result.rank = rank;
  if (universe.unreachable(rank)) {
    result.reachable = false;
    return;
  }
  const web::Website site = universe.generate_site(rank);
  resolver.flush_cache();
  result.page = browser.load(site, when);
  result.reachable = result.page.reachable;
  if (options.har_path) {
    util::Rng quirk_rng{util::hash_seed(
        util::combine_seed(options.seed, 0x4a52), site.url)};
    const har::Log har_log =
        har::export_site(result.page.observation, result.page.h1_entries,
                         options.har_quirks, quirk_rng);
    har::ImportStats stats;
    result.har_observation = har::import_site(har_log, &stats);
    result.har_stats = stats;
  }
  // The page's observation has exactly one downstream consumer slot;
  // moving (after the HAR export above read it) saves a deep copy of
  // every connection record per site.
  result.netlog_observation = std::move(result.page.observation);
  if (!result.page.trace.empty()) {
    // Close the pipeline the ISSUE of record describes: the site has now
    // been handed to classification. Zero-length span at load end, child
    // of the page.load root.
    const int span = result.page.trace.begin_span(
        "site.classify", result.page.finished_at, 0);
    result.page.trace.end_span(span, result.page.finished_at);
  }
}

void account(CrawlSummary& summary, WorkerCounters& counters,
             const SiteResult& result, obs::Metrics* metrics) {
  // Failure accounting covers unreachable sites too: a document killed by
  // injected faults is exactly what the ledger must show.
  summary.failures.add(result.page.failures);
  if (!result.reachable) {
    ++summary.sites_unreachable;
    ++counters.sites_unreachable;
    if (metrics != nullptr) metrics->add("crawl.sites_unreachable");
    return;
  }
  ++summary.sites_visited;
  ++counters.sites_loaded;
  if (metrics != nullptr) metrics->add("crawl.sites_visited");
  counters.connections_opened += result.page.connections_opened;
  summary.connections_opened += result.page.connections_opened;
  summary.group_reuses += result.page.group_reuses;
  summary.alias_reuses += result.page.alias_reuses;
  summary.origin_frame_reuses += result.page.origin_frame_reuses;
  summary.misdirected_retries += result.page.misdirected_retries;
  summary.har_stats.add(result.har_stats);
}

/// Chunked atomic work queue over [0, count): workers claim contiguous
/// chunks with one fetch_add, so skewed sites (a slow chunk) no longer
/// idle the other workers the way static per-thread blocks did.
class WorkQueue {
 public:
  WorkQueue(std::size_t count, unsigned threads) : count_(count) {
    // Small chunks bound the tail latency (the last chunk is at most
    // `chunk_` sites), large enough to amortize the atomic op.
    chunk_ = std::max<std::size_t>(1, count / (threads * 8u));
  }

  bool claim(std::size_t& begin, std::size_t& end) {
    const std::size_t start =
        next_.fetch_add(chunk_, std::memory_order_relaxed);
    if (start >= count_) return false;
    begin = start;
    end = std::min(count_, start + chunk_);
    return true;
  }

 private:
  std::size_t count_;
  std::size_t chunk_;
  std::atomic<std::size_t> next_{0};
};

/// crawl_range's observer: parks each finished site by rank and hands
/// the ready prefix to the sink in rank order. One worker at a time
/// drains, outside the lock; the others park their site and go back to
/// crawling.
class RankOrder final : public obs::Observer {
 public:
  RankOrder(std::size_t first_rank,
            const std::function<void(const SiteResult&)>& sink)
      : next_(first_rank), sink_(sink) {}

  void site(unsigned /*worker*/, SiteResult& result) override {
    std::unique_lock<std::mutex> lock(mutex_);
    parked_.emplace(result.rank, std::move(result));
    if (draining_) return;  // the draining worker will reach this rank
    draining_ = true;
    for (auto it = parked_.begin(); it != parked_.end() && it->first == next_;
         it = parked_.begin()) {
      const SiteResult ready = std::move(it->second);
      parked_.erase(it);
      ++next_;
      lock.unlock();
      sink_(ready);  // a throw leaves draining_ set: the crawl is failing
      lock.lock();
    }
    draining_ = false;
  }

 private:
  // guards: parked_, next_, draining_
  std::mutex mutex_;
  std::map<std::size_t, SiteResult> parked_;
  std::size_t next_;  // the rank the sink sees next
  bool draining_ = false;
  const std::function<void(const SiteResult&)>& sink_;
};

}  // namespace

void CrawlSummary::merge(const CrawlSummary& shard) {
  sites_visited += shard.sites_visited;
  sites_unreachable += shard.sites_unreachable;
  connections_opened += shard.connections_opened;
  group_reuses += shard.group_reuses;
  alias_reuses += shard.alias_reuses;
  origin_frame_reuses += shard.origin_frame_reuses;
  misdirected_retries += shard.misdirected_retries;
  failures.add(shard.failures);
  har_stats.add(shard.har_stats);
  per_worker.insert(per_worker.end(), shard.per_worker.begin(),
                    shard.per_worker.end());
}

bool CrawlSummary::operator==(const CrawlSummary& other) const {
  return sites_visited == other.sites_visited &&
         sites_unreachable == other.sites_unreachable &&
         connections_opened == other.connections_opened &&
         group_reuses == other.group_reuses &&
         alias_reuses == other.alias_reuses &&
         origin_frame_reuses == other.origin_frame_reuses &&
         misdirected_retries == other.misdirected_retries &&
         failures == other.failures &&
         har_stats == other.har_stats;
}

CrawlSummary crawl(web::SiteUniverse& universe, std::size_t first_rank,
                   std::size_t count, const CrawlOptions& options) {
  const auto vantage_points = dns::standard_vantage_points();
  if (options.vantage_index >= vantage_points.size()) {
    throw std::out_of_range("vantage index");
  }
  const dns::ResolverProfile& profile = vantage_points[options.vantage_index];
  const double crawl_start = wall_now_ms();
  const std::vector<std::size_t>* targets = options.targets;
  const std::size_t items = targets != nullptr ? targets->size() : count;
  const unsigned threads =
      items == 0 ? 1u
                 : std::min<unsigned>(std::max(1u, options.threads),
                                      static_cast<unsigned>(items));

  // Observer setup runs on the coordinating thread, before any worker
  // exists — shard allocation never races with shard use.
  obs::Observer* observer = options.observer;
  std::vector<obs::Metrics*> worker_metrics(threads, nullptr);
  if (observer != nullptr) {
    observer->begin(threads);
    for (unsigned t = 0; t < threads; ++t) {
      worker_metrics[t] = observer->metrics(t);
    }
  }

  // Each worker drains the work queue behind its own browser and
  // resolver; a chunk's counters go to Observer::chunk (with its absolute
  // rank runs), then into the worker's shard. A worker's exception stops
  // that worker and is rethrown once all have joined.
  std::vector<CrawlSummary> shards(threads);
  std::vector<std::exception_ptr> failures(threads);
  WorkQueue queue{items, threads};
  auto work = [&](unsigned t) {
    const double wall_start = wall_now_ms();
    const double cpu_start = thread_cpu_ms();
    CrawlSummary& shard = shards[t];
    shard.per_worker.resize(1);
    WorkerCounters& counters = shard.per_worker[0];
    dns::RecursiveResolver resolver{profile,
                                    &universe.ecosystem().authority()};
    Browser browser{universe.ecosystem(), resolver, options.browser,
                    options.seed};
    obs::Metrics* metrics = worker_metrics[t];
    if (metrics != nullptr) {
      resolver.set_metrics(metrics);
      browser.set_metrics(metrics);
    }
    std::size_t begin = 0;
    std::size_t end = 0;
    for (;;) {
      const double claim_start = wall_now_ms();
      const bool claimed = queue.claim(begin, end);
      counters.queue_wait_ms += wall_now_ms() - claim_start;
      if (!claimed) break;
      ++counters.chunks_claimed;
      if (metrics != nullptr) metrics->add_diag("crawl.chunks_claimed");
      ChunkEvent event;
      event.worker = t;
      for (std::size_t i = begin; i < end; ++i) {
        // `rel` keeps the site's original index in [0, count): rank and
        // load time stay exactly what an uninterrupted crawl would use,
        // no matter which targets remain.
        const std::size_t rel = targets != nullptr ? (*targets)[i] : i;
        const std::size_t rank = first_rank + rel;
        SiteResult result;
        process_site(universe, options, resolver, browser, rank,
                     options.start_time +
                         static_cast<util::SimTime>(rel) *
                             options.site_interval,
                     result);
        account(event.summary, counters, result, metrics);
        if (!event.ranges.empty() &&
            event.ranges.back().first + event.ranges.back().second == rank) {
          ++event.ranges.back().second;
        } else {
          event.ranges.emplace_back(rank, 1);
        }
        if (observer != nullptr) observer->site(t, result);
      }
      if (observer != nullptr) observer->chunk(event);
      shard.merge(event.summary);
    }
    counters.wall_ms = wall_now_ms() - wall_start;
    counters.cpu_ms = thread_cpu_ms() - cpu_start;
  };

  {
    std::vector<std::jthread> pool;  // joined here, even on a throw
    pool.reserve(threads);
    for (unsigned t = 0; t < threads; ++t) {
      pool.emplace_back([&, t]() {
        try {
          work(t);
        } catch (...) {
          failures[t] = std::current_exception();
        }
      });
    }
  }
  for (const std::exception_ptr& failure : failures) {
    if (failure != nullptr) std::rethrow_exception(failure);
  }

  CrawlSummary summary;
  for (const CrawlSummary& shard : shards) summary.merge(shard);
  summary.wall_ms = wall_now_ms() - crawl_start;
  return summary;
}

CrawlSummary crawl_range(web::SiteUniverse& universe, std::size_t first_rank,
                         std::size_t count, const CrawlOptions& options,
                         const std::function<void(const SiteResult&)>& sink) {
  if (options.observer != nullptr) {
    throw std::invalid_argument("crawl_range delivers sites to its sink; "
                                "observe a crawl through crawl()");
  }
  RankOrder order{first_rank, sink};
  CrawlOptions opts = options;
  opts.observer = &order;
  opts.targets = nullptr;  // the sink waits for every rank of the range
  return crawl(universe, first_rank, count, opts);
}

std::string describe_workers(const CrawlSummary& summary) {
  std::string out;
  char line[192];
  for (std::size_t i = 0; i < summary.per_worker.size(); ++i) {
    const WorkerCounters& w = summary.per_worker[i];
    std::snprintf(
        line, sizeof(line),
        "  worker %zu: %llu sites (%llu unreachable), %llu conns, "
        "%llu chunks, wall %.0fms, cpu %.0fms, queue wait %.1fms\n",
        i, static_cast<unsigned long long>(w.sites_loaded),
        static_cast<unsigned long long>(w.sites_unreachable),
        static_cast<unsigned long long>(w.connections_opened),
        static_cast<unsigned long long>(w.chunks_claimed), w.wall_ms,
        w.cpu_ms, w.queue_wait_ms);
    out += line;
  }
  if (summary.wall_ms > 0.0) {
    std::snprintf(line, sizeof(line), "  crawl wall time: %.0fms\n",
                  summary.wall_ms);
    out += line;
  }
  out += fault::describe(summary.failures);
  return out;
}

}  // namespace h2r::browser

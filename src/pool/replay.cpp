#include "pool/replay.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <thread>

#include "core/report_json.hpp"
#include "util/format.hpp"
#include "util/rng.hpp"

namespace h2r::proxy {

namespace {

pool::PoolKey key_of(const core::ConnectionRecord& conn) {
  pool::PoolKey key;
  key.endpoint = conn.endpoint;
  key.sni = conn.initial_domain;
  return key;  // scheme https, no client cert, full verification
}

/// Distills crawl results into SiteTraces while forwarding every channel
/// to the caller's observer (if any).
class TraceCollector final : public obs::Observer {
 public:
  TraceCollector(std::size_t first, std::size_t count, obs::Observer* chained)
      : first_(first), traces_(count), chained_(chained) {}

  void begin(unsigned workers) override {
    if (chained_ != nullptr) chained_->begin(workers);
  }
  obs::Metrics* metrics(unsigned worker) override {
    return chained_ != nullptr ? chained_->metrics(worker) : nullptr;
  }
  void chunk(const browser::ChunkEvent& event) override {
    if (chained_ != nullptr) chained_->chunk(event);
  }

  void site(unsigned worker, browser::SiteResult& result) override {
    const std::size_t index = result.rank - first_;
    if (index < traces_.size()) {
      SiteTrace& trace = traces_[index];
      trace.rank = result.rank;
      trace.url = result.netlog_observation.site_url;
      if (result.reachable) distill(result, trace);
    }
    if (chained_ != nullptr) chained_->site(worker, result);
  }

  std::vector<SiteTrace> take() { return std::move(traces_); }

 private:
  static void distill(const browser::SiteResult& result, SiteTrace& trace) {
    std::map<pool::PoolKey, std::uint32_t> indexed;
    const util::SimTime page_start = result.page.started_at;
    for (const core::ConnectionRecord& conn :
         result.netlog_observation.connections) {
      const pool::PoolKey key = key_of(conn);
      auto [it, inserted] = indexed.try_emplace(
          key, static_cast<std::uint32_t>(trace.keys.size()));
      if (inserted) trace.keys.push_back(key);
      for (const core::RequestRecord& request : conn.requests) {
        TraceRequest tr;
        tr.key_index = it->second;
        tr.rel_start = std::max<util::SimTime>(
            request.started_at - page_start, 0);
        tr.rel_end =
            std::max(request.finished_at - page_start, tr.rel_start + 1);
        tr.natural_error = request.status == 0;
        trace.requests.push_back(tr);
      }
    }
  }

  std::size_t first_;
  std::vector<SiteTrace> traces_;
  obs::Observer* chained_;
};

struct Event {
  util::SimTime start = 0;
  util::SimTime end = 0;
  std::uint64_t rank = 0;
  std::uint32_t visit = 0;
  std::uint32_t seq = 0;   // request index within the site trace
  std::uint32_t key = 0;   // global key id
  std::uint32_t worker = 0;
  bool natural = false;
};

bool event_order(const Event& a, const Event& b) {
  if (a.start != b.start) return a.start < b.start;
  if (a.rank != b.rank) return a.rank < b.rank;
  if (a.visit != b.visit) return a.visit < b.visit;
  return a.seq < b.seq;
}

std::uint64_t event_seed(std::uint64_t base, std::uint64_t rank,
                         std::uint32_t visit, std::uint32_t seq) {
  return util::combine_seed(
      util::combine_seed(util::combine_seed(base, rank + 1), visit + 1),
      seq + 1);
}

}  // namespace

std::vector<SiteTrace> collect_traces(web::SiteUniverse& universe,
                                      std::size_t first, std::size_t count,
                                      const browser::CrawlOptions& options) {
  browser::CrawlOptions crawl = options;
  crawl.browser.faults = fault::FaultConfig{};  // clean traces: the pool
                                                // owns the fault regime
  TraceCollector collector(first, count, options.observer);
  crawl.observer = &collector;
  browser::crawl(universe, first, count, crawl);
  return collector.take();
}

ReplayReport replay_traces(const std::vector<SiteTrace>& traces,
                           const ReplayOptions& options) {
  const pool::PoolConfig& config = options.pool;
  const bool worker_arch = config.arch == pool::Architecture::kWorker;

  // Global key table: ids in sorted key order, so they (and everything
  // derived from them) are independent of trace and partition layout.
  std::map<pool::PoolKey, std::uint32_t> key_ids;
  for (const SiteTrace& trace : traces) {
    for (const pool::PoolKey& key : trace.keys) key_ids.try_emplace(key, 0);
  }
  std::vector<const pool::PoolKey*> key_list;
  key_list.reserve(key_ids.size());
  for (auto& [key, id] : key_ids) {
    id = static_cast<std::uint32_t>(key_list.size());
    key_list.push_back(&key);
  }

  // Traffic synthesis: `visits` paced rounds over the site list.
  const util::SimTime spacing =
      config.visit_spacing > 0
          ? config.visit_spacing
          : config.site_interval *
                    static_cast<util::SimTime>(std::max<std::size_t>(
                        traces.size(), 1)) +
                util::seconds(10);
  const util::SimTime t0 = options.crawl.start_time;
  const std::size_t partitions = std::max<std::size_t>(
      worker_arch ? config.workers : pool::kSharedPartitions, 1);
  std::vector<std::vector<Event>> streams(partitions);
  util::SimTime horizon = t0;
  std::uint64_t total_events = 0;
  for (std::size_t i = 0; i < traces.size(); ++i) {
    const SiteTrace& trace = traces[i];
    if (trace.requests.empty()) continue;
    for (std::size_t v = 0; v < config.visits; ++v) {
      const util::SimTime base =
          t0 +
          config.site_interval * static_cast<util::SimTime>(i) +
          spacing * static_cast<util::SimTime>(v);
      const std::uint32_t worker =
          pool::worker_of(trace.rank, v, config.workers);
      for (std::size_t j = 0; j < trace.requests.size(); ++j) {
        const TraceRequest& tr = trace.requests[j];
        Event event;
        event.start = base + tr.rel_start;
        event.end = base + tr.rel_end;
        event.rank = trace.rank;
        event.visit = static_cast<std::uint32_t>(v);
        event.seq = static_cast<std::uint32_t>(j);
        event.key = key_ids.at(trace.keys[tr.key_index]);
        event.worker = worker;
        event.natural = tr.natural_error;
        horizon = std::max(horizon, event.end);
        const std::size_t partition =
            worker_arch ? worker : pool::shard_of(event.key, partitions);
        streams[partition].push_back(event);
        ++total_events;
      }
    }
  }
  for (std::vector<Event>& stream : streams) {
    std::sort(stream.begin(), stream.end(), event_order);
  }

  // Deterministic parallel application: threads claim whole partitions;
  // each partition's stream is applied in its sorted order regardless of
  // which thread runs it.
  pool::ConnectionPool upstream_pool(config, partitions);
  const unsigned threads = std::max(
      1u, options.threads != 0 ? options.threads
                               : std::max(options.crawl.threads, 1u));
  obs::MetricRegistry registry;
  for (unsigned t = 0; t < threads; ++t) registry.shard(t);
  std::atomic<std::size_t> next{0};
  auto run_worker = [&](unsigned thread_index) {
    obs::Metrics* metrics = &registry.shard(thread_index);
    while (true) {
      const std::size_t partition = next.fetch_add(1);
      if (partition >= partitions) break;
      pool::PoolShard& shard = upstream_pool.shard(partition);
      for (const Event& event : streams[partition]) {
        fault::FaultPlan plan(
            config.faults,
            fault::FaultPlan::EventSeed{event_seed(
                config.faults.seed, event.rank, event.visit, event.seq)});
        shard.acquire(event.key, *key_list[event.key], event.start, event.end,
                      event.natural, plan, metrics);
      }
      shard.drain(horizon);
    }
  };
  if (threads == 1) {
    run_worker(0);
  } else {
    std::vector<std::thread> pool_threads;
    pool_threads.reserve(threads);
    for (unsigned t = 0; t < threads; ++t) {
      pool_threads.emplace_back(run_worker, t);
    }
    for (std::thread& t : pool_threads) t.join();
  }

  ReplayReport report;
  report.arch = config.arch;
  report.sites = traces.size();
  report.visits = config.visits;
  report.stats = upstream_pool.merged_stats();
  std::vector<pool::OccupancyDelta> deltas = upstream_pool.merged_deltas();
  report.occupancy_peak = pool::occupancy_peak(deltas);

  obs::Metrics merged = registry.merged();
  merged.add("pool.requests", report.stats.requests);
  merged.add("pool.reuse_hits", report.stats.reuse_hits);
  merged.add("pool.reuse_busy", report.stats.reuse_busy);
  merged.add("pool.reuse_idle", report.stats.reuse_idle);
  merged.add("pool.final_closes", report.stats.final_closes);
  merged.add("pool.keys", key_list.size());
  merged.add("pool.events", total_events);
  merged.gauge_max("pool.occupancy_peak",
                   static_cast<std::int64_t>(report.occupancy_peak));
  report.metrics = std::move(merged);

  report.trace.site = "proxy-replay";
  const int root = report.trace.begin_span("proxy.replay", t0);
  const int sim = report.trace.begin_span("pool.simulate", t0, root);
  report.trace.spans[static_cast<std::size_t>(sim)].attrs["arch"] =
      pool::to_string(config.arch);
  report.trace.end_span(sim, horizon);
  report.trace.end_span(root, horizon);
  return report;
}

json::Value to_json(const ReplayReport& report) {
  json::Object root;
  root.set("architecture", pool::to_string(report.arch));
  root.set("sites", static_cast<std::int64_t>(report.sites));
  root.set("visits", static_cast<std::int64_t>(report.visits));
  root.set("requests", static_cast<std::int64_t>(report.stats.requests));
  root.set("served", static_cast<std::int64_t>(report.served()));
  root.set("reuse_hits", static_cast<std::int64_t>(report.stats.reuse_hits));
  root.set("reuse_busy", static_cast<std::int64_t>(report.stats.reuse_busy));
  root.set("reuse_idle", static_cast<std::int64_t>(report.stats.reuse_idle));
  root.set("fresh_connects",
           static_cast<std::int64_t>(report.stats.fresh_connects));
  root.set("final_closes",
           static_cast<std::int64_t>(report.stats.final_closes));
  root.set("dead_natural",
           static_cast<std::int64_t>(report.stats.dead_natural));
  root.set("dead_handouts",
           static_cast<std::int64_t>(report.stats.dead_handouts));
  root.set("reuse_rate", report.reuse_rate());
  root.set("occupancy_peak",
           static_cast<std::int64_t>(report.occupancy_peak));
  json::Object causes;
  for (std::size_t i = 0; i < pool::kFreshCauseCount; ++i) {
    causes.set(pool::to_string(static_cast<pool::FreshCause>(i)),
               static_cast<std::int64_t>(report.stats.fresh_causes[i]));
  }
  root.set("fresh_causes", std::move(causes));
  root.set("failures", core::to_json(report.stats.failures));
  root.set("metrics", obs::to_json(report.metrics));
  root.set("trace", obs::to_json(report.trace));
  return json::Value{std::move(root)};
}

std::string render(const ReplayReport& report) {
  std::string out;
  char line[256];
  std::snprintf(line, sizeof(line),
                "%-7s pool: %s requests, reuse %.2f%% (%s busy + %s idle), "
                "%s fresh, peak %s conns\n",
                pool::to_string(report.arch).c_str(),
                util::human_count(report.stats.requests).c_str(),
                100.0 * report.reuse_rate(),
                util::human_count(report.stats.reuse_busy).c_str(),
                util::human_count(report.stats.reuse_idle).c_str(),
                util::human_count(report.stats.fresh_connects).c_str(),
                util::human_count(report.occupancy_peak).c_str());
  out += line;
  std::string causes;
  for (std::size_t i = 0; i < pool::kFreshCauseCount; ++i) {
    if (report.stats.fresh_causes[i] == 0) continue;
    if (!causes.empty()) causes += ", ";
    causes += to_string(static_cast<pool::FreshCause>(i));
    causes += '=';
    causes += util::human_count(report.stats.fresh_causes[i]);
  }
  if (!causes.empty()) {
    out += "  fresh causes: " + causes + "\n";
  }
  const std::string coping = fault::describe(report.stats.failures);
  out += coping;
  return out;
}

}  // namespace h2r::proxy

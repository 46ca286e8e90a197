// perfbench_workload: runs one benchmark workload in this process and
// prints one JSON line of raw measurements for run.py.
//
//   perfbench_workload --workload study|optimize|replay --seed N
//                      [--scale F] [--seconds S] [--trace 0|1]
//                      [--nproc N] --out-dir DIR
//   perfbench_workload --provenance
//
// A run measures kPopulations independent populations, each generated
// from its own seed derived from --seed. Untraced reps call the library's
// public entry points (run_study, run_optimize, collect_traces +
// replay_traces) on the populations in turn, round after round, until
// --seconds have passed, writing population k's deterministic JSON
// document to DIR/doc-k.json each time. With --trace 1, one untraced round
// is followed by traced passes that drive the same per-site pipeline
// through the layers' public functions over every population, recording
// one span per call (ledger.hpp); each pass must reproduce the untraced
// documents byte for byte.
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <map>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "browser/browser.hpp"
#include "browser/crawl.hpp"
#include "core/classify.hpp"
#include "core/report.hpp"
#include "core/report_json.hpp"
#include "dns/resolver.hpp"
#include "dns/vantage.hpp"
#include "experiments/study.hpp"
#include "har/export.hpp"
#include "har/import.hpp"
#include "journal/checkpoint.hpp"
#include "journal/spill.hpp"
#include "json/json.hpp"
#include "ledger.hpp"
#include "netlog/stitch.hpp"
#include "obs/metrics.hpp"
#include "obs/observer.hpp"
#include "obs/process.hpp"
#include "optimize/optimize.hpp"
#include "pool/pool.hpp"
#include "pool/replay.hpp"
#include "util/rng.hpp"
#include "web/catalog.hpp"
#include "web/ecosystem.hpp"
#include "web/sitegen.hpp"

using namespace h2r;
using perfbench::Scope;
using perfbench::SpanBuffer;

namespace {

// ------------------------------------------------------------ settings

struct Args {
  std::string workload;
  std::uint64_t seed = 42;
  double scale = 1.0;
  double seconds = 10.0;
  bool trace = false;
  unsigned nproc = 0;
  std::string out_dir;
};

/// A run's populations. Together they hold as many sites as one
/// population of six times the size, so their mean cost per site varies
/// little from seed to seed; each alone is small enough that one rep
/// takes 0.1-0.2 s, so every population gets dozens of reps, each timed
/// next to its own calibration, spread over the whole run.
constexpr std::size_t kPopulations = 6;
/// Sizes of one population at scale 1. The study keeps the library's
/// default shape (HAR sites : Alexa sites : HAR first rank = 8 : 3 : 2).
constexpr double kStudyHar = 640;
constexpr double kStudyAlexa = 240;
constexpr double kStudyHarFirst = 160;
constexpr double kOptimizeSites = 250;
constexpr double kReplaySites = 250;
constexpr unsigned kReplayThreads = 3;
/// Timed set-ups before each untraced rep.
constexpr std::size_t kSetupsPerRep = 3;

/// The run's populations: copies of `args` whose seeds are
/// seed * kPopulations + k, so distinct run seeds never share one.
std::vector<Args> populations(const Args& args) {
  std::vector<Args> out(kPopulations, args);
  for (std::size_t k = 0; k < kPopulations; ++k) {
    out[k].seed = args.seed * kPopulations + k;
  }
  return out;
}

std::string doc_path(const Args& args, const char* stem, std::size_t k) {
  return args.out_dir + "/" + stem + "-" + std::to_string(k) + ".json";
}

std::size_t scaled(double base, double scale) {
  return std::max<std::size_t>(1, static_cast<std::size_t>(base * scale + 0.5));
}

experiments::StudyConfig study_config(const Args& args) {
  experiments::StudyConfig config;
  config.har_sites = scaled(kStudyHar, args.scale);
  config.alexa_sites = scaled(kStudyAlexa, args.scale);
  config.har_first_rank = scaled(kStudyHarFirst, args.scale);
  config.seed = args.seed;
  config.threads = 1;
  config.stream = true;
  return config;
}

optimize::OptimizeConfig optimize_config(const Args& args) {
  optimize::OptimizeConfig config;
  config.sites = scaled(kOptimizeSites, args.scale);
  config.seed = args.seed;
  config.threads = 1;
  config.stream = true;
  return config;
}

proxy::ReplayOptions replay_options(const Args& args) {
  proxy::ReplayOptions options;  // default PoolConfig: 20 visits
  options.crawl.seed = args.seed;
  options.crawl.threads = kReplayThreads;
  options.crawl.stream = true;
  options.threads = kReplayThreads;
  return options;
}

std::size_t replay_sites(const Args& args) {
  return scaled(kReplaySites, args.scale);
}

/// The universe each entry point builds for itself.
web::UniverseConfig universe_config(const Args& args) {
  web::UniverseConfig config = web::UniverseConfig::defaults();
  config.seed = args.seed;
  if (args.workload == "study") {
    const experiments::StudyConfig study = study_config(args);
    config.top_rank = std::max<std::size_t>(study.alexa_sites / 2, 1);
    config.tail_rank =
        std::max<std::size_t>(study.har_first_rank + study.har_sites, 2);
  } else if (args.workload == "optimize") {
    const std::size_t sites = optimize_config(args).sites;
    config.top_rank = std::max<std::size_t>(sites / 2, 1);
    config.tail_rank = std::max<std::size_t>(sites, 2);
  }
  return config;
}

/// Crawl workers the workload starts at once (the thread budget).
unsigned planned_threads(const Args& args) {
  if (args.workload == "study") return 3;  // one crawl per campaign
  if (args.workload == "optimize") return 1;
  return kReplayThreads;
}

/// Sites each campaign of one entry-point call visits.
std::map<std::string, std::size_t> campaign_sites(const Args& args) {
  if (args.workload == "study") {
    const experiments::StudyConfig c = study_config(args);
    return {{"alexa", c.alexa_sites}, {"nofetch", c.alexa_sites},
            {"har", c.har_sites}};
  }
  if (args.workload == "optimize") {
    return {{"optimize", optimize_config(args).sites}};
  }
  return {{"replay", replay_sites(args)}};
}

// ------------------------------------------------------------ clocks

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double wall_seconds() {
  return static_cast<double>(perfbench::now_ns()) / 1e9;
}

double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) / 1e9;
}

/// A fixed piece of work that never changes with the library: building
/// and probing an ordered map of 8192 host-name strings, about 10 ms of
/// CPU. Returns the kernel's thread CPU seconds.
double calibration_kernel() {
  const double t0 = thread_cpu_seconds();
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  auto next = [&x]() {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  std::vector<std::string> keys;
  keys.reserve(1 << 13);
  for (std::size_t i = 0; i < (1 << 13); ++i) {
    keys.push_back("host-" + std::to_string(next() % 1000003) + ".example");
  }
  std::map<std::string, std::uint64_t> table;
  for (std::size_t i = 0; i < keys.size(); ++i) table[keys[i]] += i;
  std::uint64_t sum = 0;
  for (std::size_t r = 0; r < 2; ++r) {
    for (std::size_t i = 0; i < keys.size(); ++i) {
      const auto it = table.find(keys[next() % keys.size()]);
      if (it != table.end()) sum += it->second;
    }
  }
  volatile std::uint64_t keep = sum;
  (void)keep;
  return thread_cpu_seconds() - t0;
}

struct Calibration {
  double cpu_s = 0;   // mean thread CPU of one kernel
  double wall_s = 0;  // until the last kernel finished
};

/// Runs the calibration kernel on `threads` threads at once, as many as
/// the workload keeps busy. Run before every rep, it measures how fast the
/// host is at that moment — per thread, and in parallel — so run.py can
/// divide the host's speed out of the rep's times.
Calibration calibrate(unsigned threads) {
  std::vector<double> cpu(threads, 0.0);
  const double wall0 = wall_seconds();
  std::vector<std::thread> helpers;
  for (unsigned t = 1; t < threads; ++t) {
    helpers.emplace_back([&cpu, t]() { cpu[t] = calibration_kernel(); });
  }
  cpu[0] = calibration_kernel();
  for (std::thread& helper : helpers) helper.join();
  Calibration c;
  c.wall_s = wall_seconds() - wall0;
  c.cpu_s = std::accumulate(cpu.begin(), cpu.end(), 0.0) /
            static_cast<double>(threads);
  return c;
}

// ------------------------------------------------------------ documents

/// The `h2r study --json` document: full-fidelity reports plus
/// diagnostics-free crawl summaries.
json::Value study_doc(const experiments::StudyResults& r) {
  json::Object root;
  json::Object reports;
  reports.set("har_endless", core::to_json_full(r.har_endless));
  reports.set("har_immediate", core::to_json_full(r.har_immediate));
  reports.set("alexa_exact", core::to_json_full(r.alexa_exact));
  reports.set("alexa_endless", core::to_json_full(r.alexa_endless));
  reports.set("nofetch_exact", core::to_json_full(r.nofetch_exact));
  reports.set("overlap_har_endless", core::to_json_full(r.overlap_har_endless));
  reports.set("overlap_alexa_endless",
              core::to_json_full(r.overlap_alexa_endless));
  root.set("reports", std::move(reports));
  json::Object summaries;
  summaries.set("har", journal::to_json(r.har_summary));
  summaries.set("alexa", journal::to_json(r.alexa_summary));
  summaries.set("nofetch", journal::to_json(r.nofetch_summary));
  root.set("summaries", std::move(summaries));
  root.set("overlap_sites", static_cast<std::int64_t>(r.overlap_sites));
  return json::Value{std::move(root)};
}

/// Serializes `doc` the way the h2r CLI does and writes it to `path`.
std::string write_doc(const json::Value& doc, const std::string& path) {
  json::WriteOptions opts;
  opts.pretty = true;
  std::string text = json::write(doc, opts);
  text += '\n';
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
  if (!out) throw std::runtime_error("cannot write " + path);
  return text;
}

std::string snapshot(const obs::Metrics& metrics) {
  return json::write(obs::to_json(metrics));
}

// ------------------------------------------------------------ result

/// Per-campaign crawl driver figures, read from CrawlSummary after a call.
struct CrawlFigures {
  double wall_s = 0;
  std::size_t workers = 0;
  double worker_cpu_s = 0;
  double worker_wall_s = 0;
  double queue_wait_s = 0;
};

CrawlFigures figures(const browser::CrawlSummary& summary) {
  CrawlFigures f;
  f.wall_s = summary.wall_ms / 1e3;
  f.workers = summary.per_worker.size();
  for (const browser::WorkerCounters& w : summary.per_worker) {
    f.worker_cpu_s += w.cpu_ms / 1e3;
    f.worker_wall_s += w.wall_ms / 1e3;
    f.queue_wait_s += w.queue_wait_ms / 1e3;
  }
  return f;
}

json::Value to_json(const CrawlFigures& f) {
  json::Object o;
  o.set("wall_s", f.wall_s);
  o.set("workers", static_cast<std::int64_t>(f.workers));
  o.set("worker_cpu_s", f.worker_cpu_s);
  o.set("worker_wall_s", f.worker_wall_s);
  o.set("queue_wait_s", f.queue_wait_s);
  return json::Value{std::move(o)};
}

json::Value fetch_json(const fault::FailureSummary& f) {
  json::Object o;
  o.set("attempts", static_cast<std::int64_t>(f.fetch_attempts));
  o.set("successful", static_cast<std::int64_t>(f.successful_fetches));
  o.set("failed", static_cast<std::int64_t>(f.failed_fetches));
  return json::Value{std::move(o)};
}

/// What one untraced entry-point call leaves behind besides its document.
struct RepOutcome {
  std::string doc;
  std::string metrics;  // deterministic snapshot, "" when none
  std::map<std::string, CrawlFigures> crawls;
  std::map<std::string, json::Value> fetch;
  std::size_t crawl_workers = 0;
  unsigned replay_threads = 0;
};

// ------------------------------------------------------------ untraced

RepOutcome run_untraced(const Args& args, const std::string& doc_path) {
  RepOutcome out;
  if (args.workload == "study") {
    const experiments::StudyResults r =
        experiments::run_study(study_config(args));
    out.doc = write_doc(study_doc(r), doc_path);
    out.metrics = snapshot(r.metrics);
    const std::pair<const char*, const browser::CrawlSummary*> campaigns[] = {
        {"alexa", &r.alexa_summary},
        {"nofetch", &r.nofetch_summary},
        {"har", &r.har_summary}};
    for (const auto& [name, summary] : campaigns) {
      out.crawls[name] = figures(*summary);
      out.fetch[name] = fetch_json(summary->failures);
      out.crawl_workers += summary->per_worker.size();  // concurrent
    }
  } else if (args.workload == "optimize") {
    const optimize::OptimizeResults r =
        optimize::run_optimize(optimize_config(args));
    out.doc = write_doc(optimize::to_json(r), doc_path);
    out.metrics = snapshot(r.metrics);
    out.crawls["optimize"] = figures(r.summary);
    out.fetch["optimize"] = fetch_json(r.summary.failures);
    out.crawl_workers = r.summary.per_worker.size();
  } else {
    proxy::ReplayOptions options = replay_options(args);
    web::Ecosystem eco{args.seed};
    web::ServiceCatalog catalog{eco, args.seed};
    web::SiteUniverse universe{eco, catalog, universe_config(args)};
    const double collect_start = wall_seconds();
    const std::vector<proxy::SiteTrace> traces =
        proxy::collect_traces(universe, 0, replay_sites(args), options.crawl);
    CrawlFigures collect;
    collect.wall_s = wall_seconds() - collect_start;
    // collect_traces does not return its CrawlSummary; the worker count
    // follows from the options the same way browser::crawl derives it.
    collect.workers = std::min<std::size_t>(options.crawl.threads,
                                            replay_sites(args));
    out.crawls["collect"] = collect;
    out.crawl_workers = collect.workers;
    json::Object root;
    for (const pool::Architecture arch :
         {pool::Architecture::kWorker, pool::Architecture::kShared}) {
      options.pool.arch = arch;
      const proxy::ReplayReport report = proxy::replay_traces(traces, options);
      root.set(pool::to_string(arch), proxy::to_json(report));
    }
    out.replay_threads = options.threads;
    out.doc = write_doc(json::Value{std::move(root)}, doc_path);
  }
  return out;
}

// ------------------------------------------------------------ traced

/// Counts the traced pass gathers along the pipeline.
struct Counts {
  std::uint64_t connections = 0;  // ConnectionTable rows prepared
  std::uint64_t pairs = 0;        // sum of n^2 over prepared sites
  std::uint64_t netlog_events = 0;
  std::uint64_t probe_mismatches = 0;

  void add(const Counts& o) {
    connections += o.connections;
    pairs += o.pairs;
    netlog_events += o.netlog_events;
    probe_mismatches += o.probe_mismatches;
  }
};

/// One campaign's crawl options and rank range, as its entry point sets
/// them.
struct CampaignSpec {
  std::uint64_t id = 0;  // high bits of every site id of the campaign
  browser::CrawlOptions crawl;
  std::size_t first_rank = 0;
  std::size_t count = 0;
};

/// The per-site consumer of a traced campaign: classification and
/// aggregation of one site, and the window fold at a chunk boundary.
class TracedSink {
 public:
  virtual ~TracedSink() = default;
  TracedSink() = default;
  TracedSink(const TracedSink&) = delete;
  TracedSink& operator=(const TracedSink&) = delete;
  virtual void site(SpanBuffer& spans, std::uint64_t site_id,
                    const browser::SiteResult& result, Counts& counts) = 0;
  virtual void chunk(SpanBuffer& spans, journal::ChunkCheckpoint window) = 0;
};

/// Mirrors the crawl driver's per-site accounting.
void account(browser::CrawlSummary& summary, const browser::SiteResult& result,
             obs::Metrics& metrics) {
  summary.failures.add(result.page.failures);
  if (!result.reachable) {
    ++summary.sites_unreachable;
    metrics.add("crawl.sites_unreachable");
    return;
  }
  ++summary.sites_visited;
  metrics.add("crawl.sites_visited");
  summary.connections_opened += result.page.connections_opened;
  summary.group_reuses += result.page.group_reuses;
  summary.alias_reuses += result.page.alias_reuses;
  summary.origin_frame_reuses += result.page.origin_frame_reuses;
  summary.misdirected_retries += result.page.misdirected_retries;
  summary.har_stats.add(result.har_stats);
}

/// Drives one campaign through the layers' public functions, site by
/// site, with the work-queue chunking of a one-worker streaming crawl.
browser::CrawlSummary traced_campaign(web::SiteUniverse& universe,
                                      const CampaignSpec& spec,
                                      SpanBuffer& spans, obs::Metrics& metrics,
                                      TracedSink& sink, Counts& counts) {
  const browser::CrawlOptions& options = spec.crawl;
  dns::RecursiveResolver resolver{
      dns::standard_vantage_points().at(options.vantage_index),
      &universe.ecosystem().authority()};
  browser::Browser browser{universe.ecosystem(), resolver, options.browser,
                           options.seed};
  resolver.set_metrics(&metrics);
  browser.set_metrics(&metrics);

  browser::CrawlSummary summary;
  Scope campaign(spans, perfbench::kCampaign);
  const std::size_t chunk = std::max<std::size_t>(1, spec.count / 8);
  for (std::size_t begin = 0; begin < spec.count; begin += chunk) {
    const std::size_t end = std::min(spec.count, begin + chunk);
    journal::ChunkCheckpoint window;
    window.ranges.emplace_back(spec.first_rank + begin, end - begin);
    for (std::size_t i = begin; i < end; ++i) {
      const std::size_t rank = spec.first_rank + i;
      const std::uint64_t id = (spec.id << 32) | (rank + 1);
      const util::SimTime when =
          options.start_time +
          static_cast<util::SimTime>(i) * options.site_interval;
      Scope visit(spans, perfbench::kSite, id);
      browser::SiteResult result;
      result.rank = rank;
      if (universe.unreachable(rank)) {
        result.reachable = false;
      } else {
        web::Website site;
        {
          Scope s(spans, perfbench::kGenerateSite, id);
          site = universe.generate_site(rank);
        }
        {
          Scope s(spans, perfbench::kFlushCache, id);
          resolver.flush_cache();
        }
        {
          Scope s(spans, perfbench::kBrowserLoad, id);
          result.page = browser.load(site, when);
        }
        result.reachable = result.page.reachable;
        counts.netlog_events += result.page.log.size();
        {
          Scope s(spans, perfbench::kStitchProbe, id);
          const core::SiteObservation probe =
              netlog::stitch_site(site.url, result.page.log);
          if (probe.connections.size() !=
              result.page.observation.connections.size()) {
            ++counts.probe_mismatches;
          }
        }
        if (options.har_path) {
          util::Rng quirk_rng{util::hash_seed(
              util::combine_seed(options.seed, 0x4a52), site.url)};
          har::Log log;
          {
            Scope s(spans, perfbench::kHarExport, id);
            log = har::export_site(result.page.observation,
                                   result.page.h1_entries, options.har_quirks,
                                   quirk_rng);
          }
          har::ImportStats stats;
          {
            Scope s(spans, perfbench::kHarImport, id);
            result.har_observation = har::import_site(log, &stats);
          }
          result.har_stats = stats;
        }
        result.netlog_observation = std::move(result.page.observation);
      }
      account(window.summary, result, metrics);
      sink.site(spans, id, result, counts);
    }
    summary.merge(window.summary);
    sink.chunk(spans, std::move(window));
  }
  return summary;
}

/// prepare() wrapped in its span, with the table-size counts.
void traced_prepare(SpanBuffer& spans, std::uint64_t id,
                    core::ClassifyContext& context,
                    const core::SiteObservation& obs, Counts& counts) {
  const std::uint64_t n = obs.connections.size();
  counts.connections += n;
  counts.pairs += n * n;
  Scope s(spans, perfbench::kCorePrepare, id);
  context.prepare(obs);
}

core::SiteClassification traced_classify(SpanBuffer& spans, std::uint64_t id,
                                         core::ClassifyContext& context,
                                         const core::Policy& policy) {
  const bool replay =
      policy.mask() != 0 || policy.horizon != util::kSimTimeMax;
  Scope s(spans, replay ? perfbench::kCoreClassifyReplay
                        : perfbench::kCoreClassify,
          id);
  return context.classify(policy);
}

void traced_add(SpanBuffer& spans, std::uint64_t id, core::Aggregator& agg,
                const core::SiteObservation& obs,
                const core::SiteClassification& cls) {
  Scope s(spans, perfbench::kCoreAddSite, id);
  agg.add_site(obs, cls);
}

void traced_fold(SpanBuffer& spans, journal::ReportFold& fold,
                 const journal::ChunkCheckpoint& window) {
  Scope s(spans, perfbench::kJournalFold);
  auto folded = fold.fold(window);
  if (!folded) throw std::runtime_error("fold: " + folded.error().message);
}

journal::FoldTotals traced_finish(SpanBuffer& spans,
                                  journal::ReportFold& fold) {
  Scope s(spans, perfbench::kJournalFold);
  auto totals = fold.finish();
  if (!totals) throw std::runtime_error("fold: " + totals.error().message);
  return std::move(*totals);
}

/// Everything one traced pass produced.
struct PassOutcome {
  std::vector<std::unique_ptr<SpanBuffer>> buffers;
  std::string doc;
  std::string metrics;  // deterministic snapshot of the pass
  Counts counts;
  std::uint64_t windows = 0;
  std::uint64_t har_total_entries = 0;
  std::uint64_t har_used_entries = 0;
  std::uint64_t requests_served = 0;
  std::map<std::string, std::uint64_t> fresh_connects;  // by architecture
  std::map<std::string, std::uint64_t> served;          // by architecture
  std::vector<std::int64_t> site_ns;  // per-site times without spans
  CrawlFigures collect;               // replay's trace collection
  obs::Metrics merged_metrics;        // every population's snapshot
  double wall_s = 0;
  double cpu_s = 0;

  SpanBuffer& new_buffer() {
    buffers.push_back(std::make_unique<SpanBuffer>());
    return *buffers.back();
  }

  /// Folds one population's traced outcome into this pass.
  void absorb(PassOutcome part) {
    for (auto& b : part.buffers) buffers.push_back(std::move(b));
    counts.add(part.counts);
    windows += part.windows;
    har_total_entries += part.har_total_entries;
    har_used_entries += part.har_used_entries;
    requests_served += part.requests_served;
    for (const auto& [arch, n] : part.fresh_connects) fresh_connects[arch] += n;
    for (const auto& [arch, n] : part.served) served[arch] += n;
    site_ns.insert(site_ns.end(), part.site_ns.begin(), part.site_ns.end());
    collect.wall_s += part.collect.wall_s;
    collect.workers = std::max(collect.workers, part.collect.workers);
    collect.worker_cpu_s += part.collect.worker_cpu_s;
    collect.worker_wall_s += part.collect.worker_wall_s;
    collect.queue_wait_s += part.collect.queue_wait_s;
    const auto parsed = obs::metrics_from_json(json::parse(part.metrics).value());
    if (parsed) merged_metrics.merge(parsed.value());
    wall_s += part.wall_s;
    cpu_s += part.cpu_s;
  }
};

// --- study

class StudySink final : public TracedSink {
 public:
  enum class Kind { kAlexa, kNofetch, kHar };

  StudySink(Kind kind, const asdb::AsDatabase* db, std::size_t overlap_begin,
            std::size_t overlap_end)
      : kind_(kind),
        db_(db),
        overlap_begin_(overlap_begin),
        overlap_end_(overlap_end),
        a_(db),
        b_(db),
        overlap_(db) {}

  void site(SpanBuffer& spans, std::uint64_t id,
            const browser::SiteResult& result, Counts& counts) override {
    if (!result.reachable) return;
    const bool overlap =
        result.rank >= overlap_begin_ && result.rank < overlap_end_;
    using core::DurationModel;
    switch (kind_) {
      case Kind::kAlexa: {
        const core::SiteObservation& obs = result.netlog_observation;
        traced_prepare(spans, id, context_, obs, counts);
        const core::SiteClassification exact =
            traced_classify(spans, id, context_, {DurationModel::kExact});
        traced_add(spans, id, a_, obs, exact);
        const core::SiteClassification endless =
            traced_classify(spans, id, context_, {DurationModel::kEndless});
        traced_add(spans, id, b_, obs, endless);
        if (overlap) traced_add(spans, id, overlap_, obs, endless);
        break;
      }
      case Kind::kNofetch: {
        const core::SiteObservation& obs = result.netlog_observation;
        traced_prepare(spans, id, context_, obs, counts);
        const core::SiteClassification exact =
            traced_classify(spans, id, context_, {DurationModel::kExact});
        traced_add(spans, id, a_, obs, exact);
        break;
      }
      case Kind::kHar: {
        const core::SiteObservation& obs = result.har_observation;
        traced_prepare(spans, id, context_, obs, counts);
        const core::SiteClassification endless =
            traced_classify(spans, id, context_, {DurationModel::kEndless});
        traced_add(spans, id, a_, obs, endless);
        const core::SiteClassification immediate =
            traced_classify(spans, id, context_, {DurationModel::kImmediate});
        traced_add(spans, id, b_, obs, immediate);
        if (overlap) {
          ++overlap_sites_;
          traced_add(spans, id, overlap_, obs, endless);
        }
        break;
      }
    }
  }

  void chunk(SpanBuffer& spans, journal::ChunkCheckpoint window) override {
    switch (kind_) {
      case Kind::kAlexa:
        window.campaign = "alexa";
        window.reports.emplace_back("exact", a_.report());
        window.reports.emplace_back("endless", b_.report());
        window.reports.emplace_back("overlap", overlap_.report());
        break;
      case Kind::kNofetch:
        window.campaign = "nofetch";
        window.reports.emplace_back("exact", a_.report());
        break;
      case Kind::kHar:
        window.campaign = "har";
        window.reports.emplace_back("endless", a_.report());
        window.reports.emplace_back("immediate", b_.report());
        window.reports.emplace_back("overlap", overlap_.report());
        window.overlap_sites = overlap_sites_;
        break;
    }
    traced_fold(spans, fold_, window);
    a_ = core::Aggregator(db_);
    b_ = core::Aggregator(db_);
    overlap_ = core::Aggregator(db_);
    overlap_sites_ = 0;
  }

  journal::ReportFold& fold() { return fold_; }

 private:
  Kind kind_;
  const asdb::AsDatabase* db_;
  std::size_t overlap_begin_;
  std::size_t overlap_end_;
  core::Aggregator a_;
  core::Aggregator b_;
  core::Aggregator overlap_;
  std::uint64_t overlap_sites_ = 0;
  core::ClassifyContext context_;
  journal::ReportFold fold_;
};

void traced_study(const Args& args, PassOutcome& out,
                  const std::string& doc_path) {
  const experiments::StudyConfig config = study_config(args);
  SpanBuffer& main_spans = out.new_buffer();
  std::unique_ptr<Scope> pass = std::make_unique<Scope>(main_spans,
                                                        perfbench::kPass);
  std::unique_ptr<web::Ecosystem> eco;
  std::unique_ptr<web::ServiceCatalog> catalog;
  std::unique_ptr<web::SiteUniverse> universe;
  {
    Scope s(main_spans, perfbench::kWebSetup);
    eco = std::make_unique<web::Ecosystem>(config.seed);
    catalog = std::make_unique<web::ServiceCatalog>(*eco, config.seed);
    universe = std::make_unique<web::SiteUniverse>(*eco, *catalog,
                                                   universe_config(args));
  }
  const asdb::AsDatabase* db = &eco->as_database();
  const std::size_t overlap_begin = config.har_first_rank;
  const std::size_t overlap_end =
      std::min(config.alexa_sites, config.har_first_rank + config.har_sites);

  // The three campaigns with the options run_study gives them.
  struct Campaign {
    CampaignSpec spec;
    StudySink::Kind kind;
    std::unique_ptr<StudySink> sink;
    SpanBuffer* spans = nullptr;
    obs::Metrics metrics;
    Counts counts;
    browser::CrawlSummary summary;
    journal::FoldTotals totals;
    std::exception_ptr error;
  };
  std::vector<std::unique_ptr<Campaign>> campaigns;
  auto add = [&](StudySink::Kind kind, std::uint64_t id) {
    auto c = std::make_unique<Campaign>();
    c->kind = kind;
    c->spec.id = id;
    browser::CrawlOptions& crawl = c->spec.crawl;
    crawl.browser.follow_fetch_credentials = kind != StudySink::Kind::kNofetch;
    crawl.browser.vantage_region = kind == StudySink::Kind::kHar ? "us" : "eu";
    crawl.vantage_index = kind == StudySink::Kind::kHar ? 12 : 0;
    crawl.seed = config.seed + id;
    crawl.start_time = kind == StudySink::Kind::kAlexa     ? util::days(1)
                       : kind == StudySink::Kind::kNofetch ? util::days(4)
                                                           : util::days(8);
    crawl.har_path = kind == StudySink::Kind::kHar;
    c->spec.first_rank =
        kind == StudySink::Kind::kHar ? config.har_first_rank : 0;
    c->spec.count = kind == StudySink::Kind::kHar ? config.har_sites
                                                  : config.alexa_sites;
    c->sink = std::make_unique<StudySink>(kind, db, overlap_begin, overlap_end);
    c->spans = &out.new_buffer();
    c->spans->reserve(c->spec.count * 14 + 64);
    campaigns.push_back(std::move(c));
  };
  add(StudySink::Kind::kAlexa, 1);
  add(StudySink::Kind::kNofetch, 2);
  add(StudySink::Kind::kHar, 3);

  std::vector<std::thread> threads;
  for (const auto& c : campaigns) {
    Campaign* campaign = c.get();
    web::SiteUniverse* u = universe.get();
    threads.emplace_back([campaign, u]() {
      try {
        campaign->summary =
            traced_campaign(*u, campaign->spec, *campaign->spans,
                            campaign->metrics, *campaign->sink,
                            campaign->counts);
        campaign->totals =
            traced_finish(*campaign->spans, campaign->sink->fold());
      } catch (...) {
        campaign->error = std::current_exception();
      }
    });
  }
  {
    Scope s(main_spans, perfbench::kWaitCampaigns);
    for (std::thread& t : threads) t.join();
  }
  for (const auto& c : campaigns) {
    if (c->error != nullptr) std::rethrow_exception(c->error);
  }

  experiments::StudyResults r;
  r.config = config;
  obs::Metrics merged;
  for (const auto& c : campaigns) {
    merged.merge(c->metrics);
    out.counts.add(c->counts);
    out.windows += c->totals.windows;
    auto& reports = c->totals.reports;
    switch (c->kind) {
      case StudySink::Kind::kAlexa:
        r.alexa_exact.merge(reports["exact"]);
        r.alexa_endless.merge(reports["endless"]);
        r.overlap_alexa_endless.merge(reports["overlap"]);
        r.alexa_summary = c->summary;
        break;
      case StudySink::Kind::kNofetch:
        r.nofetch_exact.merge(reports["exact"]);
        r.nofetch_summary = c->summary;
        break;
      case StudySink::Kind::kHar:
        r.har_endless.merge(reports["endless"]);
        r.har_immediate.merge(reports["immediate"]);
        r.overlap_har_endless.merge(reports["overlap"]);
        r.overlap_sites += c->totals.overlap_sites;
        r.har_summary = c->summary;
        out.har_total_entries += c->summary.har_stats.total_entries;
        out.har_used_entries += c->summary.har_stats.used_entries;
        break;
    }
  }
  out.metrics = snapshot(merged);
  {
    Scope s(main_spans, perfbench::kOutputWrite);
    out.doc = write_doc(study_doc(r), doc_path);
  }
  pass.reset();
}

// --- optimize

/// Every subset of the swept knobs, mask-ascending (baseline first).
std::vector<std::uint8_t> policy_points(std::uint8_t knob_mask) {
  std::vector<std::uint8_t> points;
  for (unsigned mask = 0; mask <= core::kAllPolicyKnobs; ++mask) {
    if ((mask & ~static_cast<unsigned>(knob_mask)) == 0) {
      points.push_back(static_cast<std::uint8_t>(mask));
    }
  }
  return points;
}

class OptimizeSink final : public TracedSink {
 public:
  OptimizeSink(const optimize::OptimizeConfig& config,
               const asdb::AsDatabase* db)
      : config_(config),
        db_(db),
        points_(policy_points(config.knob_mask)),
        baseline_(db),
        tallies_(points_.size()) {
    for (std::uint8_t mask : points_) {
      labels_.push_back(core::Policy::with_mask(mask, config.base).label());
    }
  }

  void site(SpanBuffer& spans, std::uint64_t id,
            const browser::SiteResult& result, Counts& counts) override {
    if (!result.reachable) return;
    const core::SiteObservation& obs = result.netlog_observation;
    traced_prepare(spans, id, context_, obs, counts);
    const core::SiteClassification baseline =
        traced_classify(spans, id, context_, config_.base);
    traced_add(spans, id, baseline_, obs, baseline);
    for (std::size_t p = 0; p < points_.size(); ++p) {
      if (points_[p] == 0) {
        Scope s(spans, perfbench::kTallyAdd, id);
        tallies_[p].add_site(baseline, baseline);
        continue;
      }
      const core::SiteClassification replayed = traced_classify(
          spans, id, context_,
          core::Policy::with_mask(points_[p], config_.base));
      Scope s(spans, perfbench::kTallyAdd, id);
      tallies_[p].add_site(baseline, replayed);
    }
  }

  void chunk(SpanBuffer& spans, journal::ChunkCheckpoint window) override {
    window.campaign = "optimize";
    window.reports.emplace_back("baseline", baseline_.report());
    for (std::size_t p = 0; p < points_.size(); ++p) {
      window.tallies.emplace_back(labels_[p], tallies_[p]);
    }
    traced_fold(spans, fold_, window);
    baseline_ = core::Aggregator(db_);
    tallies_.assign(points_.size(), core::PolicyTally{});
  }

  journal::ReportFold& fold() { return fold_; }
  const std::vector<std::uint8_t>& points() const { return points_; }
  const std::vector<std::string>& labels() const { return labels_; }

 private:
  const optimize::OptimizeConfig& config_;
  const asdb::AsDatabase* db_;
  std::vector<std::uint8_t> points_;
  std::vector<std::string> labels_;
  core::Aggregator baseline_;
  std::vector<core::PolicyTally> tallies_;
  core::ClassifyContext context_;
  journal::ReportFold fold_;
};

void traced_optimize(const Args& args, PassOutcome& out,
                     const std::string& doc_path) {
  const optimize::OptimizeConfig config = optimize_config(args);
  SpanBuffer& spans = out.new_buffer();
  spans.reserve(config.sites * 40 + 64);
  Scope pass(spans, perfbench::kPass);
  std::unique_ptr<web::Ecosystem> eco;
  std::unique_ptr<web::ServiceCatalog> catalog;
  std::unique_ptr<web::SiteUniverse> universe;
  {
    Scope s(spans, perfbench::kWebSetup);
    eco = std::make_unique<web::Ecosystem>(config.seed);
    catalog = std::make_unique<web::ServiceCatalog>(*eco, config.seed);
    universe = std::make_unique<web::SiteUniverse>(*eco, *catalog,
                                                   universe_config(args));
  }
  // The crawl options run_optimize gives its (study-Alexa-like) crawl.
  CampaignSpec spec;
  spec.id = 1;
  spec.crawl.browser.follow_fetch_credentials = true;
  spec.crawl.browser.vantage_region = "eu";
  spec.crawl.vantage_index = 0;
  spec.crawl.seed = config.seed + 1;
  spec.crawl.start_time = util::days(1);
  spec.count = config.sites;

  OptimizeSink sink{config, &eco->as_database()};
  obs::Metrics metrics;
  optimize::OptimizeResults r;
  r.config = config;
  r.summary = traced_campaign(*universe, spec, spans, metrics, sink,
                              out.counts);
  journal::FoldTotals totals = traced_finish(spans, sink.fold());
  out.windows = totals.windows;
  r.baseline.merge(totals.reports["baseline"]);
  r.metrics = metrics;
  out.metrics = snapshot(metrics);
  for (std::size_t p = 0; p < sink.points().size(); ++p) {
    core::PolicyTally tally;
    const auto it = totals.tallies.find(sink.labels()[p]);
    if (it != totals.tallies.end()) tally.merge(it->second);
    r.ranked.push_back(optimize::PolicyOutcome{
        core::Policy::with_mask(sink.points()[p], config.base),
        std::move(tally)});
  }
  // run_optimize's ranking order: recovered desc, fewer knobs, mask asc.
  std::sort(r.ranked.begin(), r.ranked.end(),
            [](const optimize::PolicyOutcome& a,
               const optimize::PolicyOutcome& b) {
              if (a.tally.recovered != b.tally.recovered) {
                return a.tally.recovered > b.tally.recovered;
              }
              if (a.policy.knob_count() != b.policy.knob_count()) {
                return a.policy.knob_count() < b.policy.knob_count();
              }
              return a.policy.mask() < b.policy.mask();
            });
  Scope s(spans, perfbench::kOutputWrite);
  out.doc = write_doc(optimize::to_json(r), doc_path);
}

// --- replay

/// Chained into collect_traces: per-worker metric shards, the worker
/// count, and per-site wall times and worker CPU read on the worker
/// threads (collect_traces returns no CrawlSummary).
class SiteClock final : public obs::Observer {
 public:
  void begin(unsigned workers) override {
    const std::int64_t now = perfbench::now_ns();
    for (unsigned w = 0; w < workers; ++w) {
      (void)registry_.shard(w);
      workers_.push_back(Worker{now, now, 0.0, 0, {}});
    }
  }
  obs::Metrics* metrics(unsigned worker) override {
    return &registry_.shard(worker);
  }
  void site(unsigned worker, browser::SiteResult& result) override {
    Worker& w = workers_[worker];
    const std::int64_t now = perfbench::now_ns();
    w.site_ns.push_back(now - w.last_ns);
    w.last_ns = now;
    w.netlog_events += result.page.log.size();
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    w.cpu_s = static_cast<double>(ts.tv_sec) +
              static_cast<double>(ts.tv_nsec) / 1e9;
  }

  obs::Metrics merged() const { return registry_.merged(); }
  void collect(PassOutcome& out) const {
    for (const Worker& w : workers_) {
      out.site_ns.insert(out.site_ns.end(), w.site_ns.begin(),
                         w.site_ns.end());
      out.counts.netlog_events += w.netlog_events;
      out.collect.worker_cpu_s += w.cpu_s;
      out.collect.worker_wall_s +=
          static_cast<double>(w.last_ns - w.start_ns) / 1e9;
    }
    out.collect.workers = workers_.size();
  }

 private:
  struct Worker {
    std::int64_t start_ns;
    std::int64_t last_ns;
    double cpu_s;  // thread CPU at the worker's last site
    std::uint64_t netlog_events;
    std::vector<std::int64_t> site_ns;
  };
  obs::MetricRegistry registry_;
  std::vector<Worker> workers_;
};

void traced_replay(const Args& args, PassOutcome& out,
                   const std::string& doc_path) {
  proxy::ReplayOptions options = replay_options(args);
  SpanBuffer& spans = out.new_buffer();
  Scope pass(spans, perfbench::kPass);
  std::unique_ptr<web::Ecosystem> eco;
  std::unique_ptr<web::ServiceCatalog> catalog;
  std::unique_ptr<web::SiteUniverse> universe;
  {
    Scope s(spans, perfbench::kWebSetup);
    eco = std::make_unique<web::Ecosystem>(args.seed);
    catalog = std::make_unique<web::ServiceCatalog>(*eco, args.seed);
    universe = std::make_unique<web::SiteUniverse>(*eco, *catalog,
                                                   universe_config(args));
  }
  SiteClock clock;
  browser::CrawlOptions crawl = options.crawl;
  crawl.observer = &clock;
  std::vector<proxy::SiteTrace> traces;
  const std::int64_t collect_start = perfbench::now_ns();
  {
    Scope s(spans, perfbench::kCollectTraces);
    traces = proxy::collect_traces(*universe, 0, replay_sites(args), crawl);
  }
  out.collect.wall_s =
      static_cast<double>(perfbench::now_ns() - collect_start) / 1e9;
  clock.collect(out);
  out.metrics = snapshot(clock.merged());
  std::vector<proxy::ReplayReport> reports;
  for (const pool::Architecture arch :
       {pool::Architecture::kWorker, pool::Architecture::kShared}) {
    options.pool.arch = arch;
    Scope s(spans, arch == pool::Architecture::kWorker
                       ? perfbench::kReplayWorker
                       : perfbench::kReplayShared);
    reports.push_back(proxy::replay_traces(traces, options));
  }
  Scope s(spans, perfbench::kOutputWrite);
  json::Object root;
  for (const proxy::ReplayReport& report : reports) {
    const std::string arch = pool::to_string(report.arch);
    out.requests_served += report.served();
    out.served[arch] += report.served();
    out.fresh_connects[arch] += report.stats.fresh_connects;
    root.set(arch, proxy::to_json(report));
  }
  out.doc = write_doc(json::Value{std::move(root)}, doc_path);
}

/// One traced pass of the workload, timed as a whole.
PassOutcome run_traced(const Args& args, const std::string& doc_path) {
  PassOutcome out;
  const double wall0 = wall_seconds();
  const double cpu0 = cpu_seconds();
  if (args.workload == "study") {
    traced_study(args, out, doc_path);
  } else if (args.workload == "optimize") {
    traced_optimize(args, out, doc_path);
  } else {
    traced_replay(args, out, doc_path);
  }
  out.wall_s = wall_seconds() - wall0;
  out.cpu_s = cpu_seconds() - cpu0;
  return out;
}

// ------------------------------------------------------------ main

/// Times `count` constructions of the universe the workload builds,
/// appending each duration in seconds to `samples`.
void time_setup(const Args& args, std::size_t count, json::Array& samples) {
  const web::UniverseConfig config = universe_config(args);
  for (std::size_t i = 0; i < count; ++i) {
    const double t0 = wall_seconds();
    web::Ecosystem eco{args.seed};
    web::ServiceCatalog catalog{eco, args.seed};
    web::SiteUniverse universe{eco, catalog, config};
    samples.push_back(json::Value{wall_seconds() - t0});
  }
}

json::Value pass_json(const PassOutcome& pass, bool doc_identical,
                      bool metrics_identical) {
  std::vector<const SpanBuffer*> buffers;
  for (const auto& b : pass.buffers) buffers.push_back(b.get());
  const perfbench::Ledger ledger = perfbench::build_ledger(buffers);
  json::Object o;
  o.set("wall_s", pass.wall_s);
  o.set("cpu_s", pass.cpu_s);
  o.set("total_ns", ledger.total_ns);
  o.set("unattributed_ns", ledger.unattributed_ns);
  o.set("excluded_ns", ledger.excluded_ns);
  json::Object layers;
  for (const auto& [name, totals] : ledger.layers) {
    json::Object l;
    l.set("self_ns", totals.self_ns);
    l.set("calls", static_cast<std::int64_t>(totals.calls));
    layers.set(name, json::Value{std::move(l)});
  }
  o.set("layers", json::Value{std::move(layers)});
  std::vector<std::int64_t> site_ns = ledger.site_ns;
  site_ns.insert(site_ns.end(), pass.site_ns.begin(), pass.site_ns.end());
  o.set("sites_timed", static_cast<std::int64_t>(site_ns.size()));
  o.set("site_p50_ns", perfbench::percentile(site_ns, 0.50));
  o.set("site_p99_ns", perfbench::percentile(site_ns, 0.99));
  o.set("load_p50_ns", perfbench::percentile(ledger.load_ns, 0.50));
  o.set("load_p99_ns", perfbench::percentile(ledger.load_ns, 0.99));
  o.set("doc_identical", doc_identical);
  o.set("metrics_identical", metrics_identical);
  return json::Value{std::move(o)};
}

json::Value counts_json(const PassOutcome& pass) {
  const obs::Metrics& m = pass.merged_metrics;
  json::Object o;
  auto count = [&](const char* key, std::uint64_t value) {
    o.set(key, static_cast<std::int64_t>(value));
  };
  count("dns.queries", m.counter("dns.queries"));
  count("dns.cache_hits", m.counter("dns.cache_hits"));
  count("net.connect_attempts", m.counter("net.connect_attempts"));
  count("tls.handshakes", m.counter("tls.handshakes"));
  count("h2.requests", m.counter("h2.requests"));
  count("netlog.events", pass.counts.netlog_events);
  count("core.connections", pass.counts.connections);
  count("core.pairs", pass.counts.pairs);
  count("journal.windows", pass.windows);
  count("har.total_entries", pass.har_total_entries);
  count("har.used_entries", pass.har_used_entries);
  count("pool.requests_served", pass.requests_served);
  count("probe_mismatches", pass.counts.probe_mismatches);
  json::Object reuse;  // 1 - fresh connects / served, as reuse_rate()
  for (const auto& [arch, served] : pass.served) {
    reuse.set(arch, served == 0 ? 0.0
                                : 1.0 - static_cast<double>(
                                            pass.fresh_connects.at(arch)) /
                                            static_cast<double>(served));
  }
  o.set("pool.reuse_ratio", json::Value{std::move(reuse)});
  o.set("collect", to_json(pass.collect));
  return json::Value{std::move(o)};
}

int run(const Args& args) {
  if (args.workload != "study" && args.workload != "optimize" &&
      args.workload != "replay") {
    throw std::invalid_argument("unknown workload: " + args.workload);
  }
  const unsigned planned = planned_threads(args);
  if (args.nproc > 0 && planned > args.nproc) {
    throw std::runtime_error(
        "thread budget: " + args.workload + " would start " +
        std::to_string(planned) + " crawl threads on " +
        std::to_string(args.nproc) + " processors");
  }
  const std::vector<Args> pops = populations(args);

  json::Object result;
  result.set("workload", args.workload);
  result.set("seed", static_cast<std::int64_t>(args.seed));
  result.set("scale", args.scale);
  result.set("planned_threads", static_cast<std::int64_t>(planned));

  // Untraced rounds, each one rep of every population: at least one (three
  // without tracing), then until the measuring time is used up — its first
  // third when traced passes follow. A few timed set-ups and the
  // calibration kernel precede each rep, so both sample the whole run.
  struct PopulationRun {
    RepOutcome first;
    json::Array reps;
    bool reps_identical = true;
  };
  std::vector<PopulationRun> runs(pops.size());
  const double start = wall_seconds();
  const double deadline = start + args.seconds;
  const double untraced_deadline =
      args.trace ? start + args.seconds / 3 : deadline;
  const std::size_t min_rounds = args.trace ? 1 : 3;
  for (std::size_t round = 0;; ++round) {
    for (std::size_t k = 0; k < pops.size(); ++k) {
      json::Array setup;
      time_setup(pops[k], kSetupsPerRep, setup);
      const Calibration calibration = calibrate(planned);
      const double wall0 = wall_seconds();
      const double cpu0 = cpu_seconds();
      RepOutcome outcome = run_untraced(pops[k], doc_path(args, "doc", k));
      json::Object r;
      r.set("wall_s", wall_seconds() - wall0);
      r.set("cpu_s", cpu_seconds() - cpu0);
      r.set("calibration_s", calibration.cpu_s);
      r.set("calibration_wall_s", calibration.wall_s);
      r.set("setup_s", json::Value{std::move(setup)});
      PopulationRun& pop_run = runs[k];
      pop_run.reps.push_back(json::Value{std::move(r)});
      if (round == 0) {
        pop_run.first = std::move(outcome);
      } else if (outcome.doc != pop_run.first.doc ||
                 outcome.metrics != pop_run.first.metrics) {
        pop_run.reps_identical = false;
      }
    }
    if (round + 1 >= min_rounds && wall_seconds() >= untraced_deadline) break;
  }

  std::size_t sites = 0;
  json::Array pop_list;
  for (std::size_t k = 0; k < pops.size(); ++k) {
    PopulationRun& pop_run = runs[k];
    json::Object p;
    p.set("seed", static_cast<std::int64_t>(pops[k].seed));
    std::size_t pop_sites = 0;
    json::Object population;
    for (const auto& [campaign, count] : campaign_sites(pops[k])) {
      pop_sites += count;
      population.set(campaign, static_cast<std::int64_t>(count));
    }
    sites += pop_sites;
    p.set("sites", static_cast<std::int64_t>(pop_sites));
    p.set("population", json::Value{std::move(population)});
    p.set("reps", json::Value{std::move(pop_run.reps)});
    p.set("reps_identical", pop_run.reps_identical);
    p.set("doc_bytes", static_cast<std::int64_t>(pop_run.first.doc.size()));
    json::Object crawls;
    for (const auto& [name, f] : pop_run.first.crawls) {
      crawls.set(name, to_json(f));
    }
    p.set("crawls", json::Value{std::move(crawls)});
    json::Object fetch;
    for (const auto& [name, f] : pop_run.first.fetch) fetch.set(name, f);
    p.set("fetch", json::Value{std::move(fetch)});
    pop_list.push_back(json::Value{std::move(p)});
  }
  result.set("sites", static_cast<std::int64_t>(sites));
  result.set("populations", json::Value{std::move(pop_list)});
  result.set("peak_rss_kib", static_cast<std::int64_t>(obs::peak_rss_kib()));
  result.set("crawl_workers",
             static_cast<std::int64_t>(runs.front().first.crawl_workers));
  result.set("replay_threads",
             static_cast<std::int64_t>(runs.front().first.replay_threads));

  if (args.trace) {
    // Traced passes over every population until the measuring time is
    // used up (at least one). The ledger comes from the pass with the
    // median wall time; its spans are written out at the end.
    std::vector<PassOutcome> passes;
    json::Array pass_json_list;
    for (;;) {
      PassOutcome pass;
      bool doc_identical = true;
      bool metrics_identical = true;
      for (std::size_t k = 0; k < pops.size(); ++k) {
        PassOutcome part =
            run_traced(pops[k], doc_path(args, "doc-traced", k));
        const RepOutcome& first = runs[k].first;
        doc_identical = doc_identical && part.doc == first.doc;
        metrics_identical = metrics_identical &&
                            (first.metrics.empty() ||
                             part.metrics == first.metrics);
        pass.absorb(std::move(part));
      }
      pass_json_list.push_back(
          pass_json(pass, doc_identical, metrics_identical));
      passes.push_back(std::move(pass));
      if (wall_seconds() >= deadline) break;
    }
    std::vector<std::size_t> order(passes.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return passes[a].wall_s < passes[b].wall_s;
    });
    const PassOutcome& ledger_pass = passes[order[(order.size() - 1) / 2]];
    result.set("passes", json::Value{std::move(pass_json_list)});
    result.set("ledger_pass",
               static_cast<std::int64_t>(order[(order.size() - 1) / 2]));
    result.set("counts", counts_json(ledger_pass));
    std::vector<const SpanBuffer*> buffers;
    for (const auto& b : ledger_pass.buffers) buffers.push_back(b.get());
    const std::string spans_path = args.out_dir + "/spans.tsv";
    if (!perfbench::write_spans(spans_path, buffers)) {
      throw std::runtime_error("cannot write " + spans_path);
    }
    result.set("spans_path", spans_path);
  }
  std::printf("%s\n", json::write(json::Value{std::move(result)}).c_str());
  return 0;
}

int provenance() {
  json::Object o;
#if defined(__clang__)
  o.set("compiler", std::string("clang ") + __clang_version__);
#elif defined(__GNUC__)
  o.set("compiler", std::string("gcc ") + __VERSION__);
#else
  o.set("compiler", std::string("unknown"));
#endif
  o.set("build_type", std::string(PERFBENCH_BUILD_TYPE));
  json::Array sanitizers;
#if defined(__SANITIZE_ADDRESS__)
  sanitizers.push_back(json::Value{std::string("address")});
#endif
#if defined(__SANITIZE_THREAD__)
  sanitizers.push_back(json::Value{std::string("thread")});
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) && !defined(__SANITIZE_ADDRESS__)
  sanitizers.push_back(json::Value{std::string("address")});
#endif
#if __has_feature(thread_sanitizer) && !defined(__SANITIZE_THREAD__)
  sanitizers.push_back(json::Value{std::string("thread")});
#endif
#if __has_feature(undefined_behavior_sanitizer)
  sanitizers.push_back(json::Value{std::string("undefined")});
#endif
#endif
  o.set("sanitizers", json::Value{std::move(sanitizers)});
#if defined(NDEBUG)
  o.set("ndebug", true);
#else
  o.set("ndebug", false);
#endif
#if defined(__OPTIMIZE__)
  o.set("optimized", true);
#else
  o.set("optimized", false);
#endif
  std::printf("%s\n", json::write(json::Value{std::move(o)}).c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--provenance") return provenance();
    if (i + 1 >= argc) {
      std::fprintf(stderr, "perfbench_workload: %s needs a value\n", argv[i]);
      return 2;
    }
    const char* value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--scale") {
      args.scale = std::strtod(value, nullptr);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--nproc") {
      args.nproc = static_cast<unsigned>(std::strtoul(value, nullptr, 10));
    } else if (flag == "--out-dir") {
      args.out_dir = value;
    } else {
      std::fprintf(stderr, "perfbench_workload: unknown flag %s\n", argv[i]);
      return 2;
    }
  }
  if (args.out_dir.empty() || !(args.scale > 0)) {
    std::fprintf(stderr, "perfbench_workload: --out-dir and a positive "
                         "--scale are required\n");
    return 2;
  }
  try {
    return run(args);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench_workload: %s\n", error.what());
    return 1;
  }
}

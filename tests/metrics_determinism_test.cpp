// Differential proof that metric snapshots obey the crawl's determinism
// contract. The DETERMINISTIC domain (dns.* / net.* / tls.* / h2.* /
// browser.* / crawl.* counters, gauges and simulated-time histograms) is
// bit-identical for every thread count and fault regime pairing — the
// serialized JSON bytes match, which is exactly what the CI metrics job
// diffs on full study runs. Diagnostic metrics (chunks claimed, journal
// telemetry) ARE thread-count dependent and are excluded from the
// snapshot; this test also pins that exclusion.
#include <gtest/gtest.h>

#include <string>

#include "browser/crawl.hpp"
#include "experiments/study.hpp"
#include "fault/fault.hpp"
#include "json/json.hpp"
#include "obs/metrics.hpp"
#include "obs/observer.hpp"
#include "web/catalog.hpp"
#include "web/ecosystem.hpp"
#include "web/sitegen.hpp"

namespace h2r::obs {
namespace {

constexpr std::size_t kSites = 30;

Metrics crawl_metrics(unsigned threads, double fault_rate) {
  web::Ecosystem eco{42};
  web::ServiceCatalog catalog{eco, 42};
  web::SiteUniverse universe{eco, catalog};

  browser::CrawlOptions options;
  options.threads = threads;
  options.seed = 4321;
  options.har_path = true;
  if (fault_rate > 0.0) {
    options.browser.faults = fault::FaultConfig::uniform(fault_rate);
  }
  MetricsObserver observer;
  options.observer = &observer;
  browser::crawl(universe, 0, kSites, options);
  return observer.merged();
}

TEST(MetricsDeterminism, SnapshotsIdenticalAcrossThreadCounts) {
  for (const double rate : {0.0, 0.25}) {
    SCOPED_TRACE("fault_rate=" + std::to_string(rate));
    const Metrics baseline = crawl_metrics(1, rate);
    EXPECT_GT(baseline.counter("crawl.sites_visited"), 0u);
    EXPECT_GT(baseline.counter("dns.queries"), 0u);
    EXPECT_GT(baseline.counter("tls.handshakes"), 0u);
    EXPECT_GT(baseline.counter("h2.requests"), 0u);
    EXPECT_FALSE(baseline.histogram("browser.page_load_ms").empty());
    const std::string baseline_json = json::write(to_json(baseline));
    for (const unsigned threads : {2u, 7u}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      const Metrics run = crawl_metrics(threads, rate);
      EXPECT_EQ(run, baseline);
      EXPECT_EQ(json::write(to_json(run)), baseline_json);
    }
  }
}

TEST(MetricsDeterminism, DiagnosticsMayDifferButStayInvisible) {
  const Metrics a = crawl_metrics(1, 0.0);
  const Metrics b = crawl_metrics(7, 0.0);
  // Equal snapshots even though the chunk accounting differs (the work
  // queue sizes its chunks by the thread count).
  EXPECT_EQ(a, b);
  EXPECT_GT(a.diag_counter("crawl.chunks_claimed"), 0u);
  EXPECT_GT(b.diag_counter("crawl.chunks_claimed"), 0u);
}

TEST(MetricsDeterminism, NoWallClockLeakIntoSnapshotsOrEquality) {
  // The audited ban.clock allows in browser/crawl.cpp (wall_now_ms /
  // thread_cpu_ms) rest on a quarantine: real-clock values feed ONLY the
  // diagnostic domain — WorkerCounters and CrawlSummary::wall_ms — and
  // never the deterministic metric snapshot or summary equality. This
  // test fails if that quarantine springs a leak.
  web::Ecosystem eco{42};
  web::ServiceCatalog catalog{eco, 42};
  web::SiteUniverse universe{eco, catalog};
  browser::CrawlOptions options;
  options.threads = 3;
  options.seed = 4321;
  MetricsObserver observer;
  options.observer = &observer;
  browser::CrawlSummary summary = browser::crawl(universe, 0, kSites, options);

  // The real clocks did run and did land in the diagnostic fields...
  ASSERT_FALSE(summary.per_worker.empty());
  double wall_total = 0.0;
  for (const auto& worker : summary.per_worker) wall_total += worker.wall_ms;
  EXPECT_GT(wall_total, 0.0);

  // ...but no deterministic metric name carries a wall/cpu reading, and
  // the serialized snapshot (what CI diffs byte-for-byte across thread
  // counts) never mentions one.
  const Metrics merged = observer.merged();
  for (const auto& [name, value] : merged.counters()) {
    (void)value;
    EXPECT_EQ(name.find("wall"), std::string::npos) << name;
    EXPECT_EQ(name.find("cpu"), std::string::npos) << name;
  }
  for (const auto& [name, histogram] : merged.histograms()) {
    (void)histogram;
    EXPECT_EQ(name.find("wall"), std::string::npos) << name;
    EXPECT_EQ(name.find("cpu"), std::string::npos) << name;
  }
  const std::string snapshot = json::write(to_json(merged));
  EXPECT_EQ(snapshot.find("wall"), std::string::npos);
  EXPECT_EQ(snapshot.find("cpu"), std::string::npos);
  EXPECT_EQ(snapshot.find("queue_wait"), std::string::npos);

  // Summary equality ignores the clock-fed fields entirely: wildly
  // different diagnostic values compare equal, a one-count measurement
  // drift does not.
  browser::CrawlSummary tampered = summary;
  tampered.wall_ms = 1.0e9;
  for (auto& worker : tampered.per_worker) {
    worker.wall_ms = -1.0;
    worker.cpu_ms = 7.7e7;
    worker.queue_wait_ms = 1234.5;
  }
  EXPECT_TRUE(tampered == summary);
  tampered.connections_opened += 1;
  EXPECT_FALSE(tampered == summary);
}

TEST(MetricsDeterminism, StudySnapshotsIdenticalAcrossThreadCounts) {
  experiments::StudyConfig config;
  config.har_sites = 25;
  config.alexa_sites = 20;
  config.har_first_rank = 10;
  config.seed = 42;

  config.threads = 1;
  const experiments::StudyResults one = experiments::run_study(config);
  EXPECT_GT(one.metrics.counter("crawl.sites_visited"), 0u);
  EXPECT_GT(one.metrics.counter("browser.pages"), 0u);

  config.threads = 3;
  const experiments::StudyResults three = experiments::run_study(config);
  EXPECT_EQ(one.metrics, three.metrics);
  EXPECT_EQ(json::write(to_json(one.metrics)),
            json::write(to_json(three.metrics)));
}

}  // namespace
}  // namespace h2r::obs

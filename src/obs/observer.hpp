// The one observation interface the crawl carries.
//
// CrawlOptions carries one Observer*, and every observation channel
// (per-site results with their NetLog, chunk checkpoints, metric shards)
// flows through it.
//
// Threading contract, designed around the deterministic-merge rule:
//   * begin() and metrics() run on the coordinating thread before any
//     worker starts — allocate per-worker state there.
//   * site() and chunk() run on the worker's own thread, only ever with
//     that worker's index; two calls with the same index never race.
//   * Nothing is called after the crawl returns; the observer may then
//     be read without synchronization.
#pragma once

#include "obs/metrics.hpp"

namespace h2r::browser {
struct ChunkEvent;
struct SiteResult;
}  // namespace h2r::browser

namespace h2r::obs {

class Observer {
 public:
  virtual ~Observer();

  /// The crawl is about to start `workers` worker loops. Coordinating
  /// thread.
  virtual void begin(unsigned workers) { (void)workers; }

  /// Metrics shard for `worker`, or nullptr to skip recording for it.
  /// Called once per worker on the coordinating thread, after begin();
  /// the shard must stay valid until the crawl returns.
  virtual Metrics* metrics(unsigned worker) {
    (void)worker;
    return nullptr;
  }

  /// One site finished (reachable or not), in claim order on the
  /// worker's thread. The result is the observer's to consume — it may
  /// move pieces out; the crawl discards it afterwards.
  virtual void site(unsigned worker, browser::SiteResult& result) {
    (void)worker;
    (void)result;
  }

  /// One work-queue chunk drained, on the worker's thread, after the
  /// chunk's last site(). Fires on every crawl.
  virtual void chunk(const browser::ChunkEvent& event) { (void)event; }
};

/// Observer that only collects metrics — one shard per worker, merged on
/// demand. The building block for the CLI, benches and tests.
class MetricsObserver : public Observer {
 public:
  void begin(unsigned workers) override;
  Metrics* metrics(unsigned worker) override;

  const MetricRegistry& registry() const noexcept { return registry_; }
  Metrics merged() const { return registry_.merged(); }

 private:
  MetricRegistry registry_;
};

}  // namespace h2r::obs

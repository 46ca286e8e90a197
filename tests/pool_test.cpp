// The edge-proxy pool's resilience-and-determinism contract:
//
//   * the circuit breaker's full transition table, pinned,
//   * idle eviction at EXACTLY idle_since + idle_timeout (off-by-one
//     probed from both sides),
//   * a connection that errored in-request is NEVER handed out again,
//   * stale handouts fall back to a fresh dial under the shared retry
//     budget (and abandon when the budget is spent),
//   * chaos differential: threads x fault-rate x architecture replay
//     reports are bit-identical; fault rate 0 is bit-identical to no
//     injection at all,
//   * conservation identities — every injected pool-path fault lands in
//     exactly one coping bucket (see fault.hpp),
//   * the FailureSummary JSON codec round-trips the pool counters.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "browser/crawl.hpp"
#include "core/report_json.hpp"
#include "fault/fault.hpp"
#include "json/json.hpp"
#include "pool/breaker.hpp"
#include "pool/key.hpp"
#include "pool/pool.hpp"
#include "pool/replay.hpp"
#include "test_env_guard.hpp"
#include "util/clock.hpp"
#include "util/env.hpp"
#include "web/catalog.hpp"
#include "web/ecosystem.hpp"
#include "web/sitegen.hpp"

namespace h2r::pool {
namespace {

fault::FaultPlan::EventSeed seed(std::uint64_t value) { return {value}; }

fault::FaultConfig only(fault::FaultKind kind, double rate) {
  fault::FaultConfig config;
  config.set_rate(kind, rate);
  return config;
}

TEST(CircuitBreakerTest, PinnedTransitionSequence) {
  CircuitBreaker breaker{BreakerPolicy{2, util::milliseconds(100)}};
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  EXPECT_EQ(breaker.admit(0), BreakerState::kClosed);
  EXPECT_FALSE(breaker.record_failure(0));  // 1 of 2
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  EXPECT_TRUE(breaker.record_failure(1));  // threshold -> OPEN
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
  EXPECT_EQ(breaker.admit(50), BreakerState::kOpen);    // cooling down
  EXPECT_EQ(breaker.admit(100), BreakerState::kOpen);   // until 1 + 100
  EXPECT_EQ(breaker.admit(101), BreakerState::kHalfOpen);  // the probe
  EXPECT_EQ(breaker.admit(101), BreakerState::kOpen);  // probe in flight
  EXPECT_TRUE(breaker.record_failure(101));  // probe failed -> reopen
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
  EXPECT_EQ(breaker.admit(150), BreakerState::kOpen);  // new cooldown
  EXPECT_EQ(breaker.admit(201), BreakerState::kHalfOpen);
  breaker.record_success();  // probe succeeded -> closed, streak reset
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  EXPECT_EQ(breaker.consecutive_failures(), 0);
}

TEST(CircuitBreakerTest, ThresholdZeroDisables) {
  CircuitBreaker breaker{BreakerPolicy{0, util::milliseconds(100)}};
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(breaker.admit(i), BreakerState::kClosed);
    EXPECT_FALSE(breaker.record_failure(i));
  }
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
}

TEST(PoolShardTest, IdleConnReusedOneTickBeforeTimeout) {
  PoolConfig config;
  config.idle_timeout = util::seconds(10);
  PoolShard shard{config, 0};
  fault::FaultPlan inert;
  const PoolKey key;
  const auto first = shard.acquire(0, key, 0, 1000, false, inert, nullptr);
  EXPECT_TRUE(first.fresh);
  EXPECT_EQ(first.cause, FreshCause::kCold);
  // Parked idle at t=1000; expires at 11000. One tick earlier: reused.
  const auto second =
      shard.acquire(0, key, 10999, 11500, false, inert, nullptr);
  EXPECT_TRUE(second.reused);
  EXPECT_EQ(second.conn, first.conn);
  EXPECT_EQ(shard.stats().failures.pool_idle_evictions, 0u);
}

TEST(PoolShardTest, IdleConnEvictedAtExactTimeoutTick) {
  PoolConfig config;
  config.idle_timeout = util::seconds(10);
  PoolShard shard{config, 0};
  fault::FaultPlan inert;
  const PoolKey key;
  const auto first = shard.acquire(0, key, 0, 1000, false, inert, nullptr);
  // Parked idle at t=1000; at exactly 1000 + 10000 the conn is gone.
  const auto second =
      shard.acquire(0, key, 11000, 11500, false, inert, nullptr);
  EXPECT_TRUE(second.fresh);
  EXPECT_NE(second.conn, first.conn);
  EXPECT_EQ(second.cause, FreshCause::kIdleExpired);
  EXPECT_EQ(shard.stats().failures.pool_idle_evictions, 1u);
  // The eviction is stamped with the expiry instant, not the sweep time.
  bool found = false;
  for (const OccupancyDelta& d : shard.deltas()) {
    if (d.delta == -1 && d.conn == first.conn) {
      EXPECT_EQ(d.at, 11000);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(PoolShardTest, DeadConnectionNeverHandedOutAgain) {
  PoolConfig config;
  const fault::FaultConfig goaway = only(fault::FaultKind::kGoaway, 1.0);
  PoolShard shard{config, 0};
  const PoolKey key;
  fault::FaultPlan first_plan{goaway, seed(1)};
  const auto first = shard.acquire(0, key, 0, 100, false, first_plan, nullptr);
  EXPECT_TRUE(first.fresh);
  EXPECT_TRUE(first.failed);  // GOAWAY killed the request and the conn
  fault::FaultPlan second_plan{goaway, seed(2)};
  const auto second =
      shard.acquire(0, key, 10, 110, false, second_plan, nullptr);
  EXPECT_TRUE(second.fresh);
  EXPECT_NE(second.conn, first.conn);  // a NEW conn, never the dead one
  EXPECT_EQ(second.cause, FreshCause::kErrorReplace);
  EXPECT_EQ(shard.stats().dead_handouts, 0u);
  EXPECT_EQ(shard.stats().failures.pool_dead_discards, 2u);
  EXPECT_EQ(shard.stats().reuse_hits, 0u);
}

TEST(PoolShardTest, StaleHandoutAbandonsWhenBudgetIsZero) {
  PoolConfig config;
  config.faults.max_retries = 0;
  PoolShard shard{config, 0};
  fault::FaultPlan inert;
  const PoolKey key;
  ASSERT_TRUE(shard.acquire(0, key, 0, 100, false, inert, nullptr).fresh);
  // The parked conn turns out dead on handout; with no retry budget the
  // request is abandoned, not served on the dead conn.
  fault::FaultPlan stale{only(fault::FaultKind::kConnectReset, 1.0), seed(7)};
  const auto second = shard.acquire(0, key, 200, 300, false, stale, nullptr);
  EXPECT_TRUE(second.abandoned);
  EXPECT_FALSE(second.reused);
  const fault::FailureSummary& f = shard.stats().failures;
  EXPECT_EQ(f.pool_stale_handouts, 1u);
  EXPECT_EQ(f.pool_connect_abandoned, 1u);
  EXPECT_EQ(f.retries, 0u);
}

TEST(PoolShardTest, StaleFallbackConsumesTheSharedRetryBudget) {
  PoolConfig config;
  config.faults.max_retries = 3;
  PoolShard shard{config, 0};
  fault::FaultPlan inert;
  const PoolKey key;
  ASSERT_TRUE(shard.acquire(0, key, 0, 100, false, inert, nullptr).fresh);
  // Every handout and every dial fails: stale fallback burns retry #1,
  // then dials fail until the budget (3) is spent.
  fault::FaultPlan chaos{only(fault::FaultKind::kConnectReset, 1.0), seed(9)};
  const auto second = shard.acquire(0, key, 200, 300, false, chaos, nullptr);
  EXPECT_TRUE(second.abandoned);
  const fault::FailureSummary& f = shard.stats().failures;
  EXPECT_EQ(f.pool_stale_handouts, 1u);
  EXPECT_EQ(f.pool_connect_failures, 3u);
  EXPECT_EQ(f.retries, 3u);
  EXPECT_EQ(f.pool_connect_abandoned, 1u);
  // retries == stale + connect_failures - abandoned, by construction.
  EXPECT_EQ(f.retries, f.pool_stale_handouts + f.pool_connect_failures -
                           f.pool_connect_abandoned);
}

TEST(PoolShardTest, BreakerFailsFastThenProbesThenCloses) {
  PoolConfig config;
  config.breaker = BreakerPolicy{2, util::milliseconds(1000)};
  const fault::FaultConfig goaway = only(fault::FaultKind::kGoaway, 1.0);
  PoolShard shard{config, 0};
  const PoolKey key;
  fault::FaultPlan f1{goaway, seed(1)};
  fault::FaultPlan f2{goaway, seed(2)};
  EXPECT_TRUE(shard.acquire(0, key, 0, 50, false, f1, nullptr).failed);
  EXPECT_TRUE(shard.acquire(0, key, 1, 51, false, f2, nullptr).failed);
  EXPECT_EQ(shard.stats().failures.pool_breaker_opens, 1u);
  // Open: requests fail fast without touching the upstream.
  fault::FaultPlan inert;
  const auto rejected = shard.acquire(0, key, 2, 52, false, inert, nullptr);
  EXPECT_TRUE(rejected.rejected);
  EXPECT_EQ(shard.stats().failures.pool_breaker_rejected, 1u);
  // Cooldown over (opened at t=1, until t=1001): the probe goes through
  // and its success closes the breaker again.
  const auto probe = shard.acquire(0, key, 1001, 1100, false, inert, nullptr);
  EXPECT_TRUE(probe.fresh);
  EXPECT_EQ(probe.cause, FreshCause::kBreakerProbe);
  const auto after = shard.acquire(0, key, 1002, 1100, false, inert, nullptr);
  EXPECT_TRUE(after.reused);  // multiplexed onto the probe's conn
}

TEST(OccupancyPeakTest, SameTickReplaceDoesNotInflateThePeak) {
  std::vector<OccupancyDelta> deltas = {
      {0, 1, 0, 0, 0},
      {5, 1, 0, 0, 1},
      {10, -1, 0, 0, 0},  // close sorts before the open at t=10...
      {10, 1, 0, 0, 2},
  };
  EXPECT_EQ(occupancy_peak(deltas), 2u);  // ...so the peak stays 2
}

TEST(FailureSummaryJsonTest, PoolCountersRoundTrip) {
  fault::FailureSummary summary;
  std::uint64_t next = 1;
  summary.dns_servfail = next++;
  summary.dns_timeout = next++;
  summary.dns_stale = next++;
  summary.tls_handshake = next++;
  summary.tls_cert = next++;
  summary.connect_refused = next++;
  summary.connect_reset = next++;
  summary.latency_spikes = next++;
  summary.goaways = next++;
  summary.rst_streams = next++;
  summary.fetch_attempts = next++;
  summary.successful_fetches = next++;
  summary.failed_fetches = next++;
  summary.retries = next++;
  summary.retry_successes = next++;
  summary.degraded_resources = next++;
  summary.degraded_sites = next++;
  summary.deadline_exceeded = next++;
  summary.pool_stale_handouts = next++;
  summary.pool_connect_failures = next++;
  summary.pool_connect_abandoned = next++;
  summary.pool_dead_discards = next++;
  summary.pool_idle_evictions = next++;
  summary.pool_cap_evictions = next++;
  summary.pool_breaker_rejected = next++;
  summary.pool_breaker_opens = next++;
  const auto parsed = core::failure_summary_from_json(core::to_json(summary));
  ASSERT_TRUE(parsed);
  EXPECT_EQ(*parsed, summary);
}

// ---------------------------------------------------------------------------
// Replay-level chaos differential: the same traces, every knob swept.

constexpr std::size_t kSites = 20;

const std::vector<proxy::SiteTrace>& traces() {
  static const std::vector<proxy::SiteTrace>* cached = [] {
    web::Ecosystem eco{7};
    web::ServiceCatalog catalog{eco, 7};
    web::SiteUniverse universe{eco, catalog};
    browser::CrawlOptions crawl;
    crawl.seed = 11;
    crawl.threads = 2;
    return new std::vector<proxy::SiteTrace>(
        proxy::collect_traces(universe, 0, kSites, crawl));
  }();
  return *cached;
}

proxy::ReplayReport run(Architecture arch, double fault_rate,
                        unsigned threads) {
  proxy::ReplayOptions options;
  options.pool.arch = arch;
  options.pool.visits = 4;
  options.pool.faults = fault::FaultConfig::uniform(fault_rate);
  options.pool.faults.seed = 0xC0FFEE;
  options.threads = threads;
  return proxy::replay_traces(traces(), options);
}

TEST(PoolChaosTest, ReportsBitIdenticalAcrossThreadsFaultsAndArchitectures) {
  for (const Architecture arch : {Architecture::kWorker,
                                  Architecture::kShared}) {
    for (const double rate : {0.0, 0.05, 0.25}) {
      const proxy::ReplayReport base = run(arch, rate, 1);
      EXPECT_GT(base.stats.requests, 0u);
      for (const unsigned threads : {2u, 7u}) {
        EXPECT_EQ(base, run(arch, rate, threads))
            << to_string(arch) << " rate " << rate << " threads " << threads;
      }
    }
  }
}

TEST(PoolChaosTest, FaultRateZeroBitIdenticalToNoInjection) {
  proxy::ReplayOptions off;
  off.pool.visits = 4;
  off.threads = 2;  // faults default-constructed: injection disabled
  const proxy::ReplayReport clean = proxy::replay_traces(traces(), off);
  const proxy::ReplayReport zero = run(Architecture::kShared, 0.0, 2);
  EXPECT_EQ(clean, zero);
  EXPECT_EQ(zero.stats.failures.total_injected(), 0u);
}

TEST(PoolChaosTest, ConservationIdentitiesHoldUnderChaos) {
  for (const Architecture arch : {Architecture::kWorker,
                                  Architecture::kShared}) {
    const proxy::ReplayReport report = run(arch, 0.25, 2);
    const PoolStats& s = report.stats;
    const fault::FailureSummary& f = s.failures;
    EXPECT_GT(f.total_injected(), 0u);  // the chaos actually happened
    // Every injected pool-path fault lands in exactly one coping bucket.
    EXPECT_EQ(f.goaways + f.rst_streams, f.pool_dead_discards);
    EXPECT_EQ(f.connect_refused + f.connect_reset + f.tls_handshake +
                  f.tls_cert,
              f.pool_stale_handouts + f.pool_connect_failures);
    EXPECT_EQ(f.retries, f.pool_stale_handouts + f.pool_connect_failures -
                             f.pool_connect_abandoned);
    // Every request is accounted exactly once.
    EXPECT_EQ(f.fetch_attempts, f.successful_fetches + f.failed_fetches);
    EXPECT_EQ(f.fetch_attempts, s.requests);
    EXPECT_EQ(f.failed_fetches, f.pool_breaker_rejected +
                                    f.pool_connect_abandoned +
                                    f.pool_dead_discards + s.dead_natural);
    EXPECT_EQ(s.reuse_hits, s.reuse_busy + s.reuse_idle);
    std::uint64_t causes = 0;
    for (const std::uint64_t c : s.fresh_causes) causes += c;
    EXPECT_EQ(causes, s.fresh_connects);
    // The Pingora rule, asserted under 25% chaos: an errored connection
    // is NEVER handed out again.
    EXPECT_EQ(s.dead_handouts, 0u);
  }
}

TEST(PoolConfigEnv, TakesTheFaultKnobsAndRejectsTooWideValues) {
  // The pool's chaos replay is driven by the same H2R_FAULT_* knobs as
  // the study; a stream count too wide for its uint32_t field is an error
  // instead of a truncated 1.
  using h2r::testing::EnvGuard;
  EnvGuard rate("H2R_FAULT_RATE", "0.25");
  EnvGuard fault_seed("H2R_FAULT_SEED", "77");
  {
    EnvGuard streams("H2R_POOL_MAX_STREAMS", "4294967295");
    const PoolConfig config = PoolConfig::from_env();
    EXPECT_EQ(config.faults.signature(),
              fault::FaultConfig::from_env().signature());
    EXPECT_DOUBLE_EQ(config.faults.rate(fault::FaultKind::kGoaway), 0.25);
    EXPECT_EQ(config.faults.seed, 77u);
    EXPECT_EQ(config.max_streams, 4294967295u);
    EXPECT_EQ(config.arch, Architecture::kShared);
  }
  {
    EnvGuard streams("H2R_POOL_MAX_STREAMS", "4294967297");
    EXPECT_THROW((void)PoolConfig::from_env(), util::ConfigError);
  }
}

}  // namespace
}  // namespace h2r::pool

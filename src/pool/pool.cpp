#include "pool/pool.hpp"

#include <algorithm>
#include <cstdio>

#include "net/connect.hpp"
#include "tls/handshake.hpp"
#include "util/env.hpp"
#include "util/rng.hpp"

namespace h2r::pool {

std::string to_string(Architecture arch) {
  switch (arch) {
    case Architecture::kShared: return "shared";
    case Architecture::kWorker: return "worker";
  }
  return "unknown";
}

PoolConfig PoolConfig::from_env() {
  util::reject_unknown_env();
  PoolConfig config;
  config.workers = util::env("H2R_POOL_WORKERS", config.workers);
  config.visits = util::env("H2R_POOL_VISITS", config.visits);
  config.site_interval =
      util::env("H2R_POOL_SITE_INTERVAL_MS", config.site_interval);
  config.visit_spacing =
      util::env("H2R_POOL_VISIT_SPACING_MS", config.visit_spacing);
  config.idle_timeout = util::env("H2R_POOL_IDLE_MS", config.idle_timeout);
  config.key_idle_cap = util::env("H2R_POOL_KEY_CAP", config.key_idle_cap);
  config.max_streams = util::env("H2R_POOL_MAX_STREAMS", config.max_streams);
  config.breaker.threshold =
      util::env("H2R_POOL_BREAKER_THRESHOLD", config.breaker.threshold);
  config.breaker.cooldown =
      util::env("H2R_POOL_BREAKER_COOLDOWN_MS", config.breaker.cooldown);
  config.faults = fault::FaultConfig::from_env();
  return config;
}

std::string PoolConfig::signature() const {
  char buf[256];
  std::snprintf(
      buf, sizeof(buf),
      "%s/workers=%zu/visits=%zu/interval=%lld/spacing=%lld"
      "/idle=%lld/cap=%zu/streams=%u/brk=%d:%lld",
      to_string(arch).c_str(), workers, visits,
      static_cast<long long>(site_interval),
      static_cast<long long>(visit_spacing),
      static_cast<long long>(idle_timeout), key_idle_cap, max_streams,
      breaker.threshold, static_cast<long long>(breaker.cooldown));
  std::string out = buf;
  out += "/faults=";
  out += faults.signature();
  return out;
}

std::string to_string(FreshCause cause) {
  switch (cause) {
    case FreshCause::kCold: return "cold";
    case FreshCause::kIdleExpired: return "idle-expired";
    case FreshCause::kCapEvicted: return "cap-evicted";
    case FreshCause::kErrorReplace: return "error-replace";
    case FreshCause::kStaleFallback: return "stale-fallback";
    case FreshCause::kBusyOverflow: return "busy-overflow";
    case FreshCause::kBreakerProbe: return "breaker-probe";
  }
  return "unknown";
}

void PoolStats::add(const PoolStats& other) noexcept {
  util::merge_fields(*this, other);
}

std::uint64_t occupancy_peak(std::vector<OccupancyDelta>& deltas) {
  // (at, delta, ...) — a close sorts before an open at the same instant,
  // so a same-tick replace never inflates the peak.
  std::sort(deltas.begin(), deltas.end());
  std::int64_t level = 0;
  std::int64_t peak = 0;
  for (const OccupancyDelta& d : deltas) {
    level += d.delta;
    peak = std::max(peak, level);
  }
  return static_cast<std::uint64_t>(std::max<std::int64_t>(peak, 0));
}

std::size_t shard_of(std::uint32_t key_id, std::size_t shards) {
  std::uint64_t state =
      0x9e3779b97f4a7c15ull ^ (static_cast<std::uint64_t>(key_id) + 1);
  return static_cast<std::size_t>(util::splitmix64(state) %
                                  static_cast<std::uint64_t>(shards));
}

std::uint32_t worker_of(std::size_t rank, std::size_t visit,
                        std::size_t workers) {
  std::uint64_t state = util::combine_seed(
      static_cast<std::uint64_t>(rank) + 0x51e5eed, // salt keeps rank 0 live
      static_cast<std::uint64_t>(visit) + 1);
  return static_cast<std::uint32_t>(util::splitmix64(state) %
                                    static_cast<std::uint64_t>(workers));
}

PoolShard::PoolShard(const PoolConfig& config, std::uint32_t partition_label)
    : config_(&config), partition_label_(partition_label) {}

PoolShard::Bucket& PoolShard::bucket(std::uint32_t key_id) {
  return buckets_.try_emplace(key_id, config_->breaker).first->second;
}

void PoolShard::push_delta(util::SimTime at, std::int32_t delta,
                           std::uint32_t key_id, std::uint32_t seq) {
  deltas_.push_back(OccupancyDelta{at, delta, partition_label_, key_id, seq});
}

void PoolShard::close_conn(Bucket& b, std::uint32_t seq) {
  b.conns.erase(seq);
}

void PoolShard::park_idle(std::uint32_t key_id, Bucket& b, std::uint32_t seq,
                          util::SimTime at) {
  b.idle.emplace_back(seq, at);
  if (b.idle.size() > config_->key_idle_cap) {
    const std::uint32_t old_seq = b.idle.front().first;
    b.idle.pop_front();
    close_conn(b, old_seq);
    push_delta(at, -1, key_id, old_seq);
    ++stats_.failures.pool_cap_evictions;
    b.next_cause = FreshCause::kCapEvicted;
  }
}

void PoolShard::sweep(std::uint32_t key_id, Bucket& b, util::SimTime now) {
  const util::SimTime timeout = config_->idle_timeout;
  while (true) {
    // Drop releases of connections that were already discarded.
    while (!b.ends.empty() &&
           b.conns.find(b.ends.front().second) == b.conns.end()) {
      std::pop_heap(b.ends.begin(), b.ends.end(),
                    std::greater<std::pair<util::SimTime, std::uint32_t>>{});
      b.ends.pop_back();
    }
    const bool has_end = !b.ends.empty() && b.ends.front().first <= now;
    const util::SimTime end_at = has_end ? b.ends.front().first : 0;
    const bool has_expiry =
        !b.idle.empty() && b.idle.front().second + timeout <= now;
    const util::SimTime expiry_at =
        has_expiry ? b.idle.front().second + timeout : 0;
    if (!has_end && !has_expiry) break;
    if (has_expiry && (!has_end || expiry_at <= end_at)) {
      // Idle timeout fires, stamped with the expiry instant itself.
      const auto [seq, since] = b.idle.front();
      b.idle.pop_front();
      close_conn(b, seq);
      push_delta(since + timeout, -1, key_id, seq);
      ++stats_.failures.pool_idle_evictions;
      b.next_cause = FreshCause::kIdleExpired;
      continue;
    }
    // A stream finished: release it, possibly parking the conn idle.
    std::pop_heap(b.ends.begin(), b.ends.end(),
                  std::greater<std::pair<util::SimTime, std::uint32_t>>{});
    const auto [at, seq] = b.ends.back();
    b.ends.pop_back();
    auto it = b.conns.find(seq);
    if (it == b.conns.end()) continue;
    Conn& conn = it->second;
    if (conn.active > 0) --conn.active;
    if (conn.active == 0) park_idle(key_id, b, seq, at);
  }
}

void PoolShard::breaker_failure(Bucket& b, util::SimTime now) {
  if (b.breaker.record_failure(now)) {
    ++stats_.failures.pool_breaker_opens;
  }
}

PoolShard::Handout PoolShard::acquire(std::uint32_t key_id, const PoolKey& key,
                                      util::SimTime now, util::SimTime end,
                                      bool natural_error,
                                      fault::FaultPlan& plan,
                                      obs::Metrics* metrics) {
  const std::lock_guard<std::mutex> lock(mu_);
  const Handout handout =
      acquire_locked(key_id, key, now, end, natural_error, plan, metrics);
  // The plan is this request's own, so its injected counters are exactly
  // this request's contribution.
  stats_.failures.add(plan.injected());
  return handout;
}

PoolShard::Handout PoolShard::acquire_locked(std::uint32_t key_id,
                                             const PoolKey& key,
                                             util::SimTime now,
                                             util::SimTime end,
                                             bool natural_error,
                                             fault::FaultPlan& plan,
                                             obs::Metrics* metrics) {
  Bucket& b = bucket(key_id);
  sweep(key_id, b, now);
  ++stats_.requests;
  ++stats_.failures.fetch_attempts;
  Handout handout;

  const BreakerState admission = b.breaker.admit(now);
  if (admission == BreakerState::kOpen) {
    handout.rejected = true;
    ++stats_.failures.pool_breaker_rejected;
    ++stats_.failures.failed_fetches;
    if (metrics != nullptr) metrics->add("pool.breaker_rejected");
    return handout;
  }
  const bool probe = admission == BreakerState::kHalfOpen;
  const util::SimTime release = std::max(end, now + 1);

  bool served = false;
  bool stale_fallback = false;

  // 1) Multiplex onto an active connection with stream headroom (the
  // normal h2 case; newest conn preferred — it is the one the previous
  // request just used).
  for (auto it = b.conns.rbegin(); it != b.conns.rend(); ++it) {
    Conn& conn = it->second;
    if (conn.dead) {
      ++stats_.dead_handouts;  // must never happen; see PoolStats
      continue;
    }
    if (conn.active > 0 && conn.active < config_->max_streams) {
      ++conn.active;
      b.ends.emplace_back(release, conn.seq);
      std::push_heap(b.ends.begin(), b.ends.end(),
                     std::greater<std::pair<util::SimTime, std::uint32_t>>{});
      handout.conn = conn.seq;
      handout.reused = true;
      ++stats_.reuse_hits;
      ++stats_.reuse_busy;
      served = true;
      break;
    }
  }

  // 2) Revive the most recently idle connection, checking it is still
  // alive (the upstream may have silently closed it while it idled).
  if (!served && !b.idle.empty()) {
    const std::uint32_t seq = b.idle.back().first;
    const net::HandoutResult alive = net::simulate_handout(&plan, metrics);
    if (alive.ok) {
      b.idle.pop_back();
      Conn& conn = b.conns.at(seq);
      conn.active = 1;
      b.ends.emplace_back(release, seq);
      std::push_heap(b.ends.begin(), b.ends.end(),
                     std::greater<std::pair<util::SimTime, std::uint32_t>>{});
      handout.conn = seq;
      handout.reused = true;
      ++stats_.reuse_hits;
      ++stats_.reuse_idle;
      served = true;
    } else {
      // Stale handout: discard immediately, fall back to a fresh dial.
      b.idle.pop_back();
      close_conn(b, seq);
      push_delta(now, -1, key_id, seq);
      ++stats_.failures.pool_stale_handouts;
      b.next_cause = FreshCause::kStaleFallback;
      stale_fallback = true;
      if (metrics != nullptr) metrics->add("pool.stale_discards");
    }
  }

  // 3) Fresh connect under the fault layer's retry/backoff budget. A
  // stale fallback consumes one retry to keep the budget shared with
  // every other recovery path.
  if (!served) {
    const int budget = std::max(config_->faults.max_retries, 0);
    int spent = 0;
    bool abandoned = false;
    if (stale_fallback) {
      if (spent >= budget) {
        abandoned = true;
        ++stats_.failures.pool_connect_abandoned;
      } else {
        ++spent;
        ++stats_.failures.retries;
      }
    }
    bool connected = false;
    while (!abandoned && !connected) {
      const net::ConnectResult dialed =
          net::simulate_connect(key.endpoint, &plan, metrics);
      bool ok = dialed.ok;
      if (ok) {
        const tls::HandshakeResult shaken =
            tls::simulate_upstream_handshake(key.sni, &plan, metrics);
        ok = shaken.ok;
      }
      if (ok) {
        connected = true;
        if (metrics != nullptr && dialed.latency_penalty > 0) {
          metrics->observe("pool.connect_latency_ms", dialed.latency_penalty);
        }
        break;
      }
      ++stats_.failures.pool_connect_failures;
      if (spent >= budget) {
        abandoned = true;
        ++stats_.failures.pool_connect_abandoned;
        break;
      }
      const int shift = std::min(spent, 20);
      if (metrics != nullptr) {
        metrics->observe("pool.backoff_ms",
                         config_->faults.backoff_base << shift);
      }
      ++spent;
      ++stats_.failures.retries;
    }
    if (abandoned) {
      handout.abandoned = true;
      ++stats_.failures.failed_fetches;
      breaker_failure(b, now);
      return handout;
    }
    const std::uint32_t seq = b.next_seq++;
    FreshCause cause = b.next_cause;
    if (!b.ever_connected) {
      cause = FreshCause::kCold;
    } else if (!b.conns.empty() && !stale_fallback) {
      cause = FreshCause::kBusyOverflow;
    }
    if (stale_fallback) cause = FreshCause::kStaleFallback;
    if (probe) cause = FreshCause::kBreakerProbe;
    b.ever_connected = true;
    b.conns.emplace(seq, Conn{seq, 1, false});
    b.ends.emplace_back(release, seq);
    std::push_heap(b.ends.begin(), b.ends.end(),
                   std::greater<std::pair<util::SimTime, std::uint32_t>>{});
    push_delta(now, 1, key_id, seq);
    handout.conn = seq;
    handout.fresh = true;
    handout.cause = cause;
    ++stats_.fresh_connects;
    ++stats_.fresh_causes[static_cast<std::size_t>(cause)];
    if (metrics != nullptr) metrics->add("pool.fresh_connects");
  }

  // 4) In-request faults: a GOAWAY or stream reset (injected), or an
  // error the original trace recorded (natural), kills the request AND
  // the connection — Pingora's "errors during the request" rule. The
  // conn is discarded here, so it can never be handed out again.
  const bool injected_error = plan.fire(fault::FaultKind::kGoaway) ||
                              plan.fire(fault::FaultKind::kRstStream);
  if (injected_error || natural_error) {
    close_conn(b, handout.conn);
    push_delta(now, -1, key_id, handout.conn);
    if (injected_error) {
      ++stats_.failures.pool_dead_discards;
    } else {
      ++stats_.dead_natural;
    }
    if (metrics != nullptr) metrics->add("pool.dead_discards");
    b.next_cause = FreshCause::kErrorReplace;
    handout.failed = true;
    ++stats_.failures.failed_fetches;
    breaker_failure(b, now);
    return handout;
  }
  ++stats_.failures.successful_fetches;
  b.breaker.record_success();
  if (metrics != nullptr) metrics->add("pool.requests_served");
  return handout;
}

void PoolShard::drain(util::SimTime horizon) {
  const std::lock_guard<std::mutex> lock(mu_);
  for (auto& [key_id, b] : buckets_) {
    sweep(key_id, b, horizon);
    for (const auto& entry : b.conns) {
      push_delta(horizon, -1, key_id, entry.first);
      ++stats_.final_closes;
    }
    b.conns.clear();
    b.idle.clear();
    b.ends.clear();
  }
}

ConnectionPool::ConnectionPool(const PoolConfig& config, std::size_t partitions)
    : config_(config) {
  for (std::size_t p = 0; p < std::max<std::size_t>(partitions, 1); ++p) {
    const std::uint32_t label = config_.arch == Architecture::kWorker
                                    ? static_cast<std::uint32_t>(p)
                                    : 0u;
    shards_.emplace_back(config_, label);
  }
}

PoolStats ConnectionPool::merged_stats() const {
  PoolStats merged;
  for (const PoolShard& shard : shards_) merged.add(shard.stats());
  return merged;
}

std::vector<OccupancyDelta> ConnectionPool::merged_deltas() const {
  std::vector<OccupancyDelta> merged;
  for (const PoolShard& shard : shards_) {
    merged.insert(merged.end(), shard.deltas().begin(), shard.deltas().end());
  }
  return merged;
}

}  // namespace h2r::pool

// Deterministic edge-proxy upstream connection pool.
//
// The core new component the ROADMAP's server-side scenario names: an
// upstream pool keyed Pingora-style (pool/key.hpp) that exists in two
// interchangeable architectures —
//   * kShared: ONE pool for the whole proxy, sharded into lockable
//     slices by key hash (Pingora's model, the 99.92%-reuse side), and
//   * kWorker: per-worker PRIVATE pools, one per virtual proxy worker
//     (nginx's model, the ~87% side) — same PoolShard type, partitioned
//     by worker instead of by key.
//
// Resilience envelope, all in simulated time:
//   * idle-timeout eviction — a connection idle for `idle_timeout` is
//     closed at exactly idle_since + idle_timeout (the eviction carries
//     the expiry timestamp, not the timestamp of the sweep that noticed),
//   * per-key idle cap — at most `key_idle_cap` idle connections per
//     key; the oldest idle one is pushed out when a newer one parks,
//   * dead-connection detection — a connection that saw an injected or
//     natural error in-request is discarded immediately and NEVER handed
//     out again (Pingora's rule: "a connection is considered not
//     reusable if errors happen during the request"),
//   * retry-on-stale-handout — an idle connection that turns out dead on
//     handout (net::simulate_handout) is discarded and the request falls
//     back to a fresh connect, consuming the fault layer's retry budget,
//   * per-upstream circuit breakers (pool/breaker.hpp).
//
// Determinism contract: a shard owns every key hashed to it wholly, keys
// never interact (there is deliberately NO global-capacity eviction),
// and every eviction/close is stamped with its own event-derived time —
// so all counters are sums of per-key contributions and the results are
// bit-identical for ANY thread count. Fault
// decisions are drawn from per-event plans seeded by event identity
// (pool/replay.hpp), never from shared RNG state.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <tuple>
#include <vector>

#include "fault/fault.hpp"
#include "obs/metrics.hpp"
#include "pool/breaker.hpp"
#include "pool/key.hpp"
#include "util/clock.hpp"
#include "util/fields.hpp"

namespace h2r::pool {

enum class Architecture : std::uint8_t { kShared, kWorker };

std::string to_string(Architecture arch);

/// kShared: the one pool's lockable slices. Threads claim whole slices,
/// so this caps the shared replay's parallelism; results do not depend
/// on it (keys never interact).
inline constexpr std::size_t kSharedPartitions = 8;

/// All pool knobs. Env-tunable via H2R_POOL_* and H2R_FAULT_* (from_env);
/// defaults are the bench_pool_reuse operating point that reproduces the
/// 99.92%-vs-87% architecture gap.
struct PoolConfig {
  Architecture arch = Architecture::kShared;
  /// kWorker: virtual proxy workers, each with a private pool.
  std::size_t workers = 12;
  /// Replay traffic model: how many times each site's trace is visited.
  std::size_t visits = 20;
  /// Replay pacing: gap between consecutive sites within one round.
  util::SimTime site_interval = util::seconds(1);
  /// Gap between a site's consecutive visits (rounds). 0 = auto: one
  /// full round (count * site_interval) plus 10s, so rounds don't
  /// overlap and the idle timeout separates the two architectures.
  util::SimTime visit_spacing = 0;
  /// Idle connections are closed at idle_since + idle_timeout.
  util::SimTime idle_timeout = util::seconds(900);
  /// Max idle connections parked per key (the LRU depth within a key).
  std::size_t key_idle_cap = 4;
  /// Max concurrent streams multiplexed on one upstream connection.
  std::uint32_t max_streams = 100;
  BreakerPolicy breaker;
  /// Pool-path fault injection (stale handouts, connect failures,
  /// in-request GOAWAY/RST_STREAM) plus the retry/backoff budget. All
  /// rates zero = clean replay, bit-identical to no injection.
  fault::FaultConfig faults;

  /// Reads the H2R_POOL_* knobs through util/env.hpp and takes `faults`
  /// from fault::FaultConfig::from_env() (trace collection runs the
  /// browser fault-free, so the pool owns H2R_FAULT_*); callers pick the
  /// architecture. A bad value or unknown H2R_* name throws ConfigError.
  static PoolConfig from_env();

  /// Compact cache-key string (arch/workers/visits/faults...).
  std::string signature() const;
};

/// Why a fresh upstream connection had to be opened — the pool-side
/// mirror of the paper's redundant-connection cause taxonomy. Every
/// fresh connect gets exactly one cause.
enum class FreshCause : std::uint8_t {
  kCold,          // first connection this pool ever opened for the key
  kIdleExpired,   // the pooled connection idled out before this request
  kCapEvicted,    // the per-key idle cap pushed the reusable conn out
  kErrorReplace,  // the previous conn died in-request and was discarded
  kStaleFallback, // handout found the pooled conn dead; this replaces it
  kBusyOverflow,  // every pooled conn was at max_streams
  kBreakerProbe,  // the half-open probe after a breaker cooldown
};

inline constexpr std::size_t kFreshCauseCount = 7;

std::string to_string(FreshCause cause);

/// Pure counters; addition is commutative, so shard merges reproduce
/// single-pass accumulation bit for bit (same rule as FailureSummary).
struct PoolStats {
  std::uint64_t requests = 0;
  std::uint64_t reuse_hits = 0;    // reuse_busy + reuse_idle
  std::uint64_t reuse_busy = 0;    // multiplexed onto an active conn
  std::uint64_t reuse_idle = 0;    // revived a parked idle conn
  std::uint64_t fresh_connects = 0;
  std::uint64_t final_closes = 0;  // conns still pooled at drain()
  std::uint64_t dead_natural = 0;  // discards from trace-native errors
  /// Defensive: handouts that found a dead conn still pooled. The
  /// invariant is that this is ALWAYS zero (dead conns are discarded at
  /// the error, before any further handout); pool_test asserts it under
  /// fault rate 0.25.
  std::uint64_t dead_handouts = 0;
  std::array<std::uint64_t, kFreshCauseCount> fresh_causes{};
  fault::FailureSummary failures;

  void add(const PoolStats& other) noexcept;

  bool operator==(const PoolStats&) const = default;
};

/// Field table (util/fields.hpp): merge only — the replay JSON is a
/// presentation encoder (proxy::to_json).
auto fields(util::RecordOf<PoolStats> auto& s) {
  auto& [requests, reuse_hits, reuse_busy, reuse_idle, fresh_connects,
         final_closes, dead_natural, dead_handouts, fresh_causes, failures] =
      s;
  constexpr unsigned kUse = util::kMerged | util::kCompared;
  using util::row;
  return std::tuple(row<kUse>("requests", requests),
                    row<kUse>("reuse_hits", reuse_hits),
                    row<kUse>("reuse_busy", reuse_busy),
                    row<kUse>("reuse_idle", reuse_idle),
                    row<kUse>("fresh_connects", fresh_connects),
                    row<kUse>("final_closes", final_closes),
                    row<kUse>("dead_natural", dead_natural),
                    row<kUse>("dead_handouts", dead_handouts),
                    row<kUse>("fresh_causes", fresh_causes),
                    row<kUse>("failures", failures));
}

/// One +-1 step of the pool's connection count, stamped with the
/// simulated time the connection actually opened/closed (not when a lazy
/// sweep noticed). `partition` is the worker id under kWorker and 0
/// under kShared, so sorting does not depend on which slice recorded it.
struct OccupancyDelta {
  util::SimTime at = 0;
  std::int32_t delta = 0;
  std::uint32_t partition = 0;
  std::uint32_t key = 0;
  std::uint32_t conn = 0;

  friend std::strong_ordering operator<=>(const OccupancyDelta&,
                                          const OccupancyDelta&) = default;
};

/// Sorts the merged delta stream and prefix-sums it; returns the peak
/// number of simultaneously open upstream connections.
std::uint64_t occupancy_peak(std::vector<OccupancyDelta>& deltas);

/// One lockable slice of the pool. Under kShared a slice owns every key
/// hashed to it; under kWorker a slice IS one worker's private pool.
/// Thread-safe: acquire()/drain() lock the shard; the replay driver
/// additionally guarantees each slice's events are applied in one
/// deterministic order, which is what makes the locking invisible to the
/// results.
class PoolShard {
 public:
  PoolShard(const PoolConfig& config, std::uint32_t partition_label);

  /// What one request got from the pool.
  struct Handout {
    std::uint32_t conn = 0;   // key-local connection sequence id
    bool reused = false;      // served on a pooled connection
    bool fresh = false;       // served on a newly opened connection
    bool rejected = false;    // breaker fail-fast, not served
    bool abandoned = false;   // connect retries exhausted, not served
    bool failed = false;      // served but the request errored (conn died)
    FreshCause cause = FreshCause::kCold;
  };

  /// Serves one request for `key_id` arriving at `now` and releasing its
  /// stream at `end`: sweeps due releases/evictions, consults the
  /// breaker, multiplexes onto an active conn or revives an idle one
  /// (stale-checked via net::simulate_handout), else dials fresh
  /// (net::simulate_connect + tls::simulate_upstream_handshake) under
  /// the fault layer's retry/backoff budget, then draws the in-request
  /// GOAWAY/RST_STREAM faults. `plan` must be the request's own
  /// event-seeded FaultPlan; its injected counters are folded into
  /// stats().failures before returning. `metrics` may be null.
  Handout acquire(std::uint32_t key_id, const PoolKey& key, util::SimTime now,
                  util::SimTime end, bool natural_error,
                  fault::FaultPlan& plan, obs::Metrics* metrics);

  /// Applies every pending release and due eviction up to `horizon`,
  /// then closes the survivors at `horizon` (counted as final_closes,
  /// not evictions). Call once after the slice's last event.
  void drain(util::SimTime horizon);

  /// Read after the workers joined (not synchronized).
  const PoolStats& stats() const noexcept { return stats_; }
  const std::vector<OccupancyDelta>& deltas() const noexcept {
    return deltas_;
  }

 private:
  struct Conn {
    std::uint32_t seq = 0;
    std::uint32_t active = 0;  // streams currently multiplexed
    bool dead = false;
  };
  struct Bucket {
    explicit Bucket(BreakerPolicy policy) : breaker(policy) {}
    std::map<std::uint32_t, Conn> conns;  // live conns by seq
    /// Pending stream releases (end, seq), min-first.
    std::vector<std::pair<util::SimTime, std::uint32_t>> ends;
    /// Idle conns (seq, idle_since), oldest in front; handouts take the
    /// back (most recently idle), evictions the front.
    std::deque<std::pair<std::uint32_t, util::SimTime>> idle;
    std::uint32_t next_seq = 0;
    bool ever_connected = false;
    /// Why the bucket last lost its reusable conn — the cause a
    /// subsequent fresh connect reports.
    FreshCause next_cause = FreshCause::kCold;
    CircuitBreaker breaker;
  };

  Handout acquire_locked(std::uint32_t key_id, const PoolKey& key,
                         util::SimTime now, util::SimTime end,
                         bool natural_error, fault::FaultPlan& plan,
                         obs::Metrics* metrics);
  Bucket& bucket(std::uint32_t key_id);
  /// Applies releases and due evictions of `b` up to `now`, interleaved
  /// in timestamp order (ties: eviction before release).
  void sweep(std::uint32_t key_id, Bucket& b, util::SimTime now);
  void park_idle(std::uint32_t key_id, Bucket& b, std::uint32_t seq,
                 util::SimTime at);
  void close_conn(Bucket& b, std::uint32_t seq);
  void push_delta(util::SimTime at, std::int32_t delta, std::uint32_t key_id,
                  std::uint32_t seq);
  /// Terminal request outcome -> breaker bookkeeping.
  void breaker_failure(Bucket& b, util::SimTime now);

  const PoolConfig* config_;
  std::uint32_t partition_label_;
  // guards: buckets_, stats_, deltas_ — one slice of the pool; held for
  // the whole acquire()/drain() call.
  std::mutex mu_;
  std::map<std::uint32_t, Bucket> buckets_;
  PoolStats stats_;
  std::vector<OccupancyDelta> deltas_;
};

/// The sharded assembly: `partitions` slices of one logical pool
/// (kShared) or `partitions` private per-worker pools (kWorker) — the
/// two architectures differ only in how the replay driver routes events.
class ConnectionPool {
 public:
  ConnectionPool(const PoolConfig& config, std::size_t partitions);

  PoolShard& shard(std::size_t partition) { return shards_[partition]; }

  /// Merged in partition order (commutative folds; call after joining).
  PoolStats merged_stats() const;
  std::vector<OccupancyDelta> merged_deltas() const;

 private:
  PoolConfig config_;
  std::deque<PoolShard> shards_;  // deque: PoolShard holds a mutex
};

/// Which slice a key lives in under kShared: a pure function of the
/// key id, so the assignment is stable across runs and thread counts.
std::size_t shard_of(std::uint32_t key_id, std::size_t shards);

/// Which virtual proxy worker serves visit `visit` of site `rank` under
/// kWorker (nginx accepts a client connection on one worker and keeps
/// it there; all its upstream requests use that worker's private pool).
std::uint32_t worker_of(std::size_t rank, std::size_t visit,
                        std::size_t workers);

}  // namespace h2r::pool

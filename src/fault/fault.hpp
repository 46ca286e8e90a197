// Deterministic fault injection.
//
// The paper discards failed Browsertime loads, so its redundancy counts
// implicitly depend on how the browser behaves under partial failure —
// something a clean simulation never exercises. This module makes failure
// a first-class, *seeded* input: a FaultPlan is derived from
// (config, browser seed, site) alone, so injected faults obey the same
// determinism contract as everything else in the crawl — threads = N is
// bit-identical to threads = 1 even with faults firing, and a plan with
// every rate at zero is bit-identical to no injection at all (the plan
// never draws from its RNG for a zero-rate kind).
//
// Injectors live where the corresponding failure happens on a real
// network path:
//   * dns::RecursiveResolver  — SERVFAIL, query timeout, stale record,
//   * tls::simulate_handshake — handshake failure, cert-validation error,
//   * net::simulate_connect   — connect refused/reset, latency spikes,
//   * browser fetch path      — mid-stream GOAWAY, RST_STREAM.
// Each consults the plan through the FaultInjector interface and counts
// what it injected in a FailureSummary, which the crawl layer merges
// across sites, workers and campaigns exactly like the other measurement
// counters.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <tuple>

#include "util/clock.hpp"
#include "util/fields.hpp"
#include "util/rng.hpp"

namespace h2r::fault {

/// Every place a fault can be injected.
enum class FaultKind : std::uint8_t {
  kDnsServfail,        // resolver answers SERVFAIL
  kDnsTimeout,         // resolver query times out
  kDnsStale,           // resolver serves an expired cache entry
  kTlsHandshake,       // TLS handshake aborts
  kTlsCertValidation,  // certificate chain fails validation
  kConnectRefused,     // TCP connect refused
  kConnectReset,       // connection reset during establishment
  kLatencySpike,       // per-connection latency spike (non-fatal)
  kGoaway,             // server sends mid-stream GOAWAY and closes
  kRstStream,          // server resets the request's stream
};

inline constexpr std::size_t kFaultKindCount = 10;

/// Stable kind names, in FaultKind order: the fault ledger's JSON keys.
inline constexpr std::string_view kind_name(FaultKind kind) noexcept {
  constexpr std::string_view kNames[kFaultKindCount] = {
      "dns-servfail",  "dns-timeout",     "dns-stale",     "tls-handshake",
      "tls-cert",      "connect-refused", "connect-reset", "latency-spike",
      "goaway",        "rst-stream",
  };
  return kNames[static_cast<std::size_t>(kind)];
}

std::string to_string(FaultKind kind);

/// Per-kind injection rates plus the retry policy the browser applies on
/// injected failures. All rates default to zero = injection disabled.
struct FaultConfig {
  std::array<double, kFaultKindCount> rates{};  // probability per decision
  std::uint64_t seed = 0xFA017;  // mixed into every plan's seed
  /// Retry policy for fetches that failed on an injected fault: up to
  /// `max_retries` attempts, the k-th delayed by backoff_base << k.
  int max_retries = 3;
  util::SimTime backoff_base = util::milliseconds(100);
  /// Latency spikes add a deterministic penalty in [latency_spike_min,
  /// latency_spike_max) ms to the handshake.
  util::SimTime latency_spike_min = util::milliseconds(50);
  util::SimTime latency_spike_max = util::milliseconds(400);

  double rate(FaultKind kind) const noexcept {
    return rates[static_cast<std::size_t>(kind)];
  }
  void set_rate(FaultKind kind, double rate) noexcept {
    rates[static_cast<std::size_t>(kind)] = rate;
  }

  /// True if any kind can fire.
  bool enabled() const noexcept;

  /// Every kind at the same rate (the chaos sweep's knob).
  static FaultConfig uniform(double rate);

  /// Reads H2R_FAULT_RATE (uniform rate for every kind), H2R_FAULT_SEED,
  /// H2R_FAULT_RETRIES and H2R_FAULT_BACKOFF_MS through util/env.hpp.
  /// Unset values keep the defaults (rate 0 = off); a malformed or
  /// out-of-range one throws util::ConfigError.
  static FaultConfig from_env();

  /// Compact cache-key string ("off" when disabled) — study result caches
  /// keyed without it would conflate runs of different fault regimes.
  std::string signature() const;
};

/// Everything that went wrong (and how the browser coped) in one page
/// load / crawl shard / campaign. Pure counters: addition is commutative,
/// so shard merges reproduce single-pass accumulation bit for bit.
struct FailureSummary {
  // Injected faults, by kind (see count(FaultKind)).
  std::uint64_t dns_servfail = 0;
  std::uint64_t dns_timeout = 0;
  std::uint64_t dns_stale = 0;
  std::uint64_t tls_handshake = 0;
  std::uint64_t tls_cert = 0;
  std::uint64_t connect_refused = 0;
  std::uint64_t connect_reset = 0;
  std::uint64_t latency_spikes = 0;
  std::uint64_t goaways = 0;
  std::uint64_t rst_streams = 0;

  // How the browser coped.
  std::uint64_t fetch_attempts = 0;   // resources fetched (retries excluded)
  std::uint64_t successful_fetches = 0;
  std::uint64_t failed_fetches = 0;   // final failures after retries
  std::uint64_t retries = 0;          // retry attempts issued
  std::uint64_t retry_successes = 0;  // fetches rescued by a retry
  std::uint64_t degraded_resources = 0;  // sub-resources given up on
  std::uint64_t degraded_sites = 0;      // sites with >= 1 degraded resource
  /// Pages whose load exceeded the per-site watchdog budget
  /// (BrowserOptions::site_deadline / H2R_SITE_DEADLINE_MS) and were
  /// abandoned instead of stalling their crawl worker. Not a FaultKind:
  /// the watchdog is a coping mechanism, not an injected failure — it can
  /// fire on natural stragglers too.
  std::uint64_t deadline_exceeded = 0;

  // How the edge-proxy pool coped (src/pool). Conservation identities the
  // chaos suite asserts: every injected pool-path fault lands in exactly
  // one of these buckets, so
  //   goaways + rst_streams            == pool_dead_discards
  //   connect_refused + connect_reset
  //     + tls_handshake + tls_cert     == pool_stale_handouts
  //                                       + pool_connect_failures
  //   retries                          == pool_stale_handouts
  //                                       + pool_connect_failures
  //                                       - pool_connect_abandoned
  // hold exactly on replay traffic (the browser path uses its own
  // FailureSummary instances, so the buckets never mix).
  std::uint64_t pool_stale_handouts = 0;    // pooled conn died on first use
  std::uint64_t pool_connect_failures = 0;  // fresh upstream connect failed
  std::uint64_t pool_connect_abandoned = 0;  // gave up after backoff budget
  std::uint64_t pool_dead_discards = 0;   // conn errored in-request, dropped
  std::uint64_t pool_idle_evictions = 0;  // idle-timeout sweep closed it
  std::uint64_t pool_cap_evictions = 0;   // per-key idle cap pushed it out
  std::uint64_t pool_breaker_rejected = 0;  // request fail-fasted (open)
  std::uint64_t pool_breaker_opens = 0;     // closed -> open transitions

  std::uint64_t& count(FaultKind kind) noexcept;
  std::uint64_t count(FaultKind kind) const noexcept;

  /// Sum of all injected-fault counters (latency spikes included).
  std::uint64_t total_injected() const noexcept;

  void add(const FailureSummary& other) noexcept;

  bool operator==(const FailureSummary&) const = default;
};

/// Field table (util/fields.hpp): the injected counters serialize under
/// "injected", keyed by kind_name(FaultKind).
auto fields(util::RecordOf<FailureSummary> auto& s) {
  auto& [dns_servfail, dns_timeout, dns_stale, tls_handshake, tls_cert,
         connect_refused, connect_reset, latency_spikes, goaways,
         rst_streams, fetch_attempts, successful_fetches, failed_fetches,
         retries, retry_successes, degraded_resources, degraded_sites,
         deadline_exceeded, pool_stale_handouts, pool_connect_failures,
         pool_connect_abandoned, pool_dead_discards, pool_idle_evictions,
         pool_cap_evictions, pool_breaker_rejected, pool_breaker_opens] = s;
  using util::row;
  return std::tuple(
      util::group("injected",
                  row(kind_name(FaultKind::kDnsServfail), dns_servfail),
                  row(kind_name(FaultKind::kDnsTimeout), dns_timeout),
                  row(kind_name(FaultKind::kDnsStale), dns_stale),
                  row(kind_name(FaultKind::kTlsHandshake), tls_handshake),
                  row(kind_name(FaultKind::kTlsCertValidation), tls_cert),
                  row(kind_name(FaultKind::kConnectRefused), connect_refused),
                  row(kind_name(FaultKind::kConnectReset), connect_reset),
                  row(kind_name(FaultKind::kLatencySpike), latency_spikes),
                  row(kind_name(FaultKind::kGoaway), goaways),
                  row(kind_name(FaultKind::kRstStream), rst_streams)),
      row("fetch_attempts", fetch_attempts),
      row("successful_fetches", successful_fetches),
      row("failed_fetches", failed_fetches), row("retries", retries),
      row("retry_successes", retry_successes),
      row("degraded_resources", degraded_resources),
      row("degraded_sites", degraded_sites),
      row("deadline_exceeded", deadline_exceeded),
      row("pool_stale_handouts", pool_stale_handouts),
      row("pool_connect_failures", pool_connect_failures),
      row("pool_connect_abandoned", pool_connect_abandoned),
      row("pool_dead_discards", pool_dead_discards),
      row("pool_idle_evictions", pool_idle_evictions),
      row("pool_cap_evictions", pool_cap_evictions),
      row("pool_breaker_rejected", pool_breaker_rejected),
      row("pool_breaker_opens", pool_breaker_opens));
}

/// Multi-line human rendering ("  dns: 3 servfail, ..."), empty when
/// nothing was injected and nothing failed.
std::string describe(const FailureSummary& summary);

/// The hook-point interface the dns/tls/net layers consult. A null
/// injector (or one whose rates are all zero) must leave the consulting
/// layer bit-identical to code that never asks.
class FaultInjector {
 public:
  virtual ~FaultInjector() = default;

  /// Decides whether `kind` fires here; counts it when it does.
  virtual bool fire(FaultKind kind) = 0;

  /// Extra handshake latency; 0 unless a kLatencySpike fires (counted).
  virtual util::SimTime latency_penalty() = 0;
};

/// The concrete per-site injector: decisions are drawn from an RNG seeded
/// by (config.seed, browser seed, site url), so a site's fault schedule is
/// independent of worker identity, load order and thread count. A
/// default-constructed plan is inert (all rates zero).
class FaultPlan final : public FaultInjector {
 public:
  FaultPlan() = default;
  FaultPlan(const FaultConfig& config, std::uint64_t browser_seed,
            std::string_view site_url);
  /// Event-scoped plan: the caller supplies the fully mixed seed. The pool
  /// replay layer derives one per (rank, visit, sequence) so a decision is
  /// a pure function of event identity — invariant to shard count, thread
  /// count and processing order.
  struct EventSeed {
    std::uint64_t value = 0;
  };
  FaultPlan(const FaultConfig& config, EventSeed seed);

  bool fire(FaultKind kind) override;
  util::SimTime latency_penalty() override;

  /// True if any kind can fire (cheap gate for hot paths).
  bool active() const noexcept { return active_; }

  const FaultConfig& config() const noexcept { return config_; }

  /// Injected-fault counters accumulated by fire()/latency_penalty().
  const FailureSummary& injected() const noexcept { return injected_; }

 private:
  FaultConfig config_{};
  util::Rng rng_{0};
  bool active_ = false;
  FailureSummary injected_{};
};

}  // namespace h2r::fault

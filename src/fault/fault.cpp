#include "fault/fault.hpp"

#include <algorithm>
#include <cstdio>

#include "util/env.hpp"

namespace h2r::fault {

namespace {

void append_count(std::string& out, std::uint64_t n, const char* label) {
  if (n == 0) return;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s%llu %s", out.empty() ? "" : ", ",
                static_cast<unsigned long long>(n), label);
  out += buf;
}

}  // namespace

std::string to_string(FaultKind kind) { return std::string(kind_name(kind)); }

bool FaultConfig::enabled() const noexcept {
  return std::any_of(rates.begin(), rates.end(),
                     [](double r) { return r > 0.0; });
}

FaultConfig FaultConfig::uniform(double rate) {
  FaultConfig config;
  config.rates.fill(rate);
  return config;
}

FaultConfig FaultConfig::from_env() {
  FaultConfig config = uniform(util::env("H2R_FAULT_RATE", 0.0));
  config.seed = util::env("H2R_FAULT_SEED", config.seed);
  config.max_retries = util::env("H2R_FAULT_RETRIES", config.max_retries);
  config.backoff_base =
      util::env("H2R_FAULT_BACKOFF_MS", config.backoff_base);
  return config;
}

std::string FaultConfig::signature() const {
  if (!enabled()) return "off";
  std::string out = "rates=";
  char buf[48];
  for (std::size_t i = 0; i < rates.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s%g", i == 0 ? "" : ",", rates[i]);
    out += buf;
  }
  std::snprintf(buf, sizeof(buf), "/seed=%llu/retries=%d/backoff=%lld",
                static_cast<unsigned long long>(seed), max_retries,
                static_cast<long long>(backoff_base));
  out += buf;
  return out;
}

std::uint64_t& FailureSummary::count(FaultKind kind) noexcept {
  switch (kind) {
    case FaultKind::kDnsServfail: return dns_servfail;
    case FaultKind::kDnsTimeout: return dns_timeout;
    case FaultKind::kDnsStale: return dns_stale;
    case FaultKind::kTlsHandshake: return tls_handshake;
    case FaultKind::kTlsCertValidation: return tls_cert;
    case FaultKind::kConnectRefused: return connect_refused;
    case FaultKind::kConnectReset: return connect_reset;
    case FaultKind::kLatencySpike: return latency_spikes;
    case FaultKind::kGoaway: return goaways;
    case FaultKind::kRstStream: return rst_streams;
  }
  return dns_servfail;  // unreachable
}

std::uint64_t FailureSummary::count(FaultKind kind) const noexcept {
  return const_cast<FailureSummary*>(this)->count(kind);
}

std::uint64_t FailureSummary::total_injected() const noexcept {
  return dns_servfail + dns_timeout + dns_stale + tls_handshake + tls_cert +
         connect_refused + connect_reset + latency_spikes + goaways +
         rst_streams;
}

void FailureSummary::add(const FailureSummary& other) noexcept {
  util::merge_fields(*this, other);
}

std::string describe(const FailureSummary& summary) {
  std::string out;
  char line[256];

  std::string injected;
  for (std::size_t i = 0; i < kFaultKindCount; ++i) {
    const FaultKind kind = static_cast<FaultKind>(i);
    append_count(injected, summary.count(kind), to_string(kind).c_str());
  }
  if (!injected.empty()) {
    std::snprintf(line, sizeof(line), "  faults injected: %s\n",
                  injected.c_str());
    out += line;
  }
  if (summary.failed_fetches > 0 || summary.retries > 0 ||
      summary.total_injected() > 0) {
    std::snprintf(line, sizeof(line),
                  "  fetches: %llu attempted, %llu ok, %llu failed; "
                  "%llu retries (%llu rescued)\n",
                  static_cast<unsigned long long>(summary.fetch_attempts),
                  static_cast<unsigned long long>(summary.successful_fetches),
                  static_cast<unsigned long long>(summary.failed_fetches),
                  static_cast<unsigned long long>(summary.retries),
                  static_cast<unsigned long long>(summary.retry_successes));
    out += line;
  }
  if (summary.degraded_resources > 0) {
    std::snprintf(
        line, sizeof(line), "  degraded: %llu resources across %llu sites\n",
        static_cast<unsigned long long>(summary.degraded_resources),
        static_cast<unsigned long long>(summary.degraded_sites));
    out += line;
  }
  if (summary.deadline_exceeded > 0) {
    std::snprintf(line, sizeof(line),
                  "  watchdog: %llu page loads abandoned at the deadline\n",
                  static_cast<unsigned long long>(summary.deadline_exceeded));
    out += line;
  }
  std::string pool;
  append_count(pool, summary.pool_stale_handouts, "stale-handouts");
  append_count(pool, summary.pool_connect_failures, "connect-failures");
  append_count(pool, summary.pool_connect_abandoned, "abandoned");
  append_count(pool, summary.pool_dead_discards, "dead-discards");
  append_count(pool, summary.pool_idle_evictions, "idle-evictions");
  append_count(pool, summary.pool_cap_evictions, "cap-evictions");
  append_count(pool, summary.pool_breaker_rejected, "breaker-rejected");
  append_count(pool, summary.pool_breaker_opens, "breaker-opens");
  if (!pool.empty()) {
    std::snprintf(line, sizeof(line), "  pool: %s\n", pool.c_str());
    out += line;
  }
  return out;
}

FaultPlan::FaultPlan(const FaultConfig& config, std::uint64_t browser_seed,
                     std::string_view site_url)
    : config_(config),
      rng_(util::hash_seed(util::combine_seed(config.seed, browser_seed),
                           site_url)),
      active_(config.enabled()) {}

FaultPlan::FaultPlan(const FaultConfig& config, EventSeed seed)
    : config_(config), rng_(seed.value), active_(config.enabled()) {}

bool FaultPlan::fire(FaultKind kind) {
  if (!active_) return false;
  const double rate = config_.rate(kind);
  // Zero-rate kinds never draw: a plan's decision stream for one kind is
  // unchanged by which OTHER kinds are disabled, and a rate-0 plan stays
  // bit-identical to no plan at all.
  if (rate <= 0.0) return false;
  if (!rng_.chance(rate)) return false;
  ++injected_.count(kind);
  return true;
}

util::SimTime FaultPlan::latency_penalty() {
  if (!fire(FaultKind::kLatencySpike)) return 0;
  const std::uint64_t span = static_cast<std::uint64_t>(
      std::max<util::SimTime>(1, config_.latency_spike_max -
                                     config_.latency_spike_min));
  return config_.latency_spike_min +
         static_cast<util::SimTime>(rng_.uniform(0, span - 1));
}

}  // namespace h2r::fault

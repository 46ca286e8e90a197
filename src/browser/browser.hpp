// A Chromium-model browser network stack.
//
// What matters for the paper is Chromium's connection handling, modeled
// here faithfully at the decision level:
//
//   * socket-pool groups keyed by (host, port, privacy_mode) — the Fetch
//     Standard's credentials flag partitions the pool (the CRED cause);
//   * SpdySessionPool IP-based pooling ("connection coalescing"): a request
//     with no group session may ride an existing session when DNS resolves
//     to that session's IP, the session's certificate covers the host, and
//     the privacy mode matches (RFC 7540 §9.1.1);
//   * HTTP 421 handling: the server refuses a coalesced authority, the
//     browser marks it and retries on a dedicated connection;
//   * optional RFC 8336 ORIGIN-frame support (off by default — Chromium
//     never implemented it, paper §4.3) which removes the DNS dependency;
//   * optional "patched" mode ignoring privacy_mode, the paper's modified
//     Chromium run (§5.3.3).
//
// Everything the stack does is emitted as NetLog events; the page-level
// result is stitched from those events, exactly like the paper's pipeline.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/connection.hpp"
#include "dns/resolver.hpp"
#include "fault/fault.hpp"
#include "har/har.hpp"
#include "http2/session.hpp"
#include "netlog/netlog.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "util/clock.hpp"
#include "util/rng.hpp"
#include "web/ecosystem.hpp"
#include "web/resource.hpp"

namespace h2r::browser {

struct BrowserOptions {
  /// Follow the Fetch Standard's credentials flag (Chromium default).
  /// false = the paper's patched build ("Alexa w/o Fetch").
  bool follow_fetch_credentials = true;
  /// SpdySessionPool IP-based pooling (Chromium: on).
  bool enable_ip_pooling = true;
  /// Honor RFC 8336 ORIGIN frames (Chromium: off; our extension benches
  /// turn it on).
  bool support_origin_frame = false;
  /// Use HTTP/3 where servers advertise it via Alt-Svc. The paper's own
  /// crawls DISABLE QUIC ("to focus on HTTP/2"); the h3 ablation turns it
  /// on and shows the same redundancy emerges over QUIC.
  bool enable_http3 = false;
  /// Vantage region, drives geo DNS and geo-variant resources
  /// ("eu" = the paper's Aachen vantage; "us" = the HTTP Archive crawler).
  std::string vantage_region = "eu";
  /// Base RTT floor; per-destination RTTs add a deterministic offset.
  util::SimTime base_rtt = util::milliseconds(8);
  /// Download bandwidth.
  double bytes_per_ms = 2000.0;
  /// How long the measurement keeps observing after the load finishes
  /// (idle servers may close connections in this window).
  util::SimTime post_load_wait = util::seconds(180);
  http2::Settings settings;
  /// Per-site watchdog deadline (H2R_SITE_DEADLINE_MS): a page load whose
  /// sub-resource schedule runs past `start_time + site_deadline` is
  /// abandoned — pending resources degrade (counted per resource, and once
  /// per page in FailureSummary::deadline_exceeded) instead of stalling
  /// the crawl worker on a pathological straggler. The budget is simulated
  /// time, so the watchdog is deterministic and thread-count invariant
  /// like every other crawl input. 0 = no deadline.
  util::SimTime site_deadline = 0;
  /// Fault injection: rates per FaultKind plus the retry/backoff policy.
  /// Default (all rates 0) is bit-identical to a build without the fault
  /// layer. The per-site FaultPlan is derived from (faults.seed, browser
  /// seed, site url), so injected faults keep the crawl's determinism
  /// contract: results are thread-count invariant even under faults.
  fault::FaultConfig faults;
  /// Record the per-site span tree (DNS resolve -> TLS handshake -> H2
  /// session -> page load) into PageLoadResult::trace. Off by default —
  /// the study path never allocates a span. Timestamps are simulated, so
  /// a recorded trace is bit-identical across thread counts and runs.
  bool record_trace = false;
};

struct PageLoadResult {
  bool reachable = true;
  /// Exact connection records, stitched from the NetLog.
  core::SiteObservation observation;
  netlog::NetLog log;
  /// Requests served over HTTP/1.1 (h2-less servers) — visible in HAR,
  /// invisible to the HTTP/2 analysis.
  std::vector<har::Entry> h1_entries;

  std::uint64_t connections_opened = 0;
  std::uint64_t group_reuses = 0;
  std::uint64_t alias_reuses = 0;         // IP-pooling hits
  std::uint64_t origin_frame_reuses = 0;  // RFC 8336 hits
  std::uint64_t misdirected_retries = 0;  // 421s
  /// Resources that ultimately failed (mirrors failures.failed_fetches).
  std::uint64_t failed_fetches = 0;
  /// Injected faults, retries, degradation — the fault layer's ledger.
  /// fetch_attempts == successful_fetches + failed_fetches always holds.
  fault::FailureSummary failures;
  /// Span tree of this load (empty unless BrowserOptions::record_trace).
  obs::Trace trace;
  util::SimTime started_at = 0;
  util::SimTime finished_at = 0;
};

/// Per-page counters of a multi-page visit.
struct VisitPageStats {
  std::uint64_t connections_opened = 0;
  std::uint64_t group_reuses = 0;
  std::uint64_t alias_reuses = 0;
  std::uint64_t requests = 0;
  util::SimTime started_at = 0;
  util::SimTime finished_at = 0;
};

/// Result of a multi-page visit: per-page counters plus ONE cumulative
/// observation (connections persist across the pages of a visit).
struct VisitResult {
  std::vector<VisitPageStats> pages;
  core::SiteObservation observation;
  netlog::NetLog log;
};

class Browser {
 public:
  Browser(const web::Ecosystem& eco, dns::RecursiveResolver& resolver,
          BrowserOptions options, std::uint64_t seed);

  /// Loads `site` starting at `start_time`. Browser state (socket pools)
  /// is fresh per load, like the paper's per-site browser restart; the
  /// recursive resolver's cache persists across loads.
  PageLoadResult load(const web::Website& site, util::SimTime start_time);

  /// Loads the landing page and then `internal_pages` (resource sets of
  /// internal pages on the same site), keeping the connection pools warm
  /// across pages — the behaviour the paper could NOT measure (it only
  /// saw landing pages, §4.3). `dwell` is the think time between pages;
  /// servers with idle timeouts shorter than it close their connections
  /// in between.
  VisitResult visit(const web::Website& site,
                    const std::vector<std::vector<web::Resource>>&
                        internal_pages,
                    util::SimTime start_time,
                    util::SimTime dwell = util::seconds(30));

  const BrowserOptions& options() const noexcept { return options_; }

  /// Installs (or clears, with nullptr) the metrics shard this browser
  /// records into: browser.* counters, the page-load-time histogram, and
  /// (via Session::Params) the h2.* counters. Not owned; the crawl
  /// installs the worker's shard before its loop starts.
  void set_metrics(obs::Metrics* metrics) noexcept { metrics_ = metrics; }

 private:
  struct SessionEntry {
    std::unique_ptr<http2::Session> session;
    util::SimTime available_at = 0;  // TLS handshake completion
    util::SimTime last_activity = 0;
    /// The server's idle timeout, cached at connect time (the server a
    /// session points at never changes within a load) so the per-page
    /// idle sweep skips the address -> server lookup.
    std::optional<util::SimTime> idle_timeout;
    int trace_span = -1;  // h2.session span index when tracing
  };

  struct GroupKey {
    std::string host;
    std::uint16_t port = 443;
    bool privacy_mode = false;

    auto operator<=>(const GroupKey&) const = default;
  };

  struct FetchOutcome {
    bool ok = false;
    /// True when the failure was injected by the fault layer — the only
    /// failures the retry policy acts on.
    bool injected_fault = false;
    util::SimTime finished_at = 0;
  };

  struct PageState {
    std::vector<SessionEntry> sessions;
    /// Flat lookup tables: a page holds a handful of groups/domains, so a
    /// linear scan beats a map's per-node heap traffic. Neither table is
    /// ever iterated, so their order cannot leak into any output.
    std::vector<std::pair<GroupKey, std::size_t>> groups;
    std::vector<std::pair<std::string, std::size_t>> conns_per_domain;

    /// Session index for (host, 443, privacy), or nullptr. Takes the key
    /// fields rather than a GroupKey so lookups never copy the host.
    std::size_t* find_group(const std::string& host, bool privacy) noexcept {
      for (auto& [key, index] : groups) {
        if (key.privacy_mode == privacy && key.port == 443 &&
            key.host == host) {
          return &index;
        }
      }
      return nullptr;
    }
    /// Find-or-insert; the GroupKey (host copy) only materializes on miss.
    std::size_t& group_slot(const std::string& host, bool privacy) {
      if (std::size_t* hit = find_group(host, privacy)) return *hit;
      return groups.emplace_back(GroupKey{host, 443, privacy}, 0).second;
    }
    /// Connection count per initial domain (find-or-insert, starts at 0).
    std::size_t& domain_conns(const std::string& host) {
      for (auto& [domain, count] : conns_per_domain) {
        if (domain == host) return count;
      }
      return conns_per_domain.emplace_back(host, 0).second;
    }
    std::map<std::pair<std::string, bool>, std::int64_t> h1_conns;
    bool document_ok = true;
    netlog::NetLog log;
    PageLoadResult result;
    util::Rng rng{0};
    /// Per-site fault schedule; inert when BrowserOptions::faults is off.
    fault::FaultPlan plan;
    /// Root ("page.load") span index; -1 when tracing is off.
    int trace_root = -1;
  };

  struct AcquireStatus {
    bool ok = false;
    bool injected_fault = false;
  };

  util::SimTime rtt_to(const net::IpAddress& address) const;

  /// The server at `address`: the active site's deployment overlay first
  /// (generated sites own their cluster), then the shared ecosystem.
  const web::Server* server_at(const net::IpAddress& address) const noexcept;

  dns::Resolution resolve(PageState& page, const std::string& host,
                          util::SimTime now);

  /// Finds or creates the session for (host, privacy). `allow_pooling` is
  /// disabled for 421 retries; `fresh_connection` additionally skips the
  /// group hit (fault retries go out on a brand-new connection).
  std::size_t acquire_session(PageState& page, const std::string& host,
                              bool privacy, util::SimTime now,
                              bool allow_pooling, bool fresh_connection,
                              AcquireStatus& status);

  FetchOutcome fetch(PageState& page, const std::string& host,
                     const std::string& path, fetch::Destination destination,
                     bool privacy, bool with_cookie, std::uint32_t size_bytes,
                     util::SimTime now, bool is_retry, bool fresh_connection);

  /// fetch() plus the resilience policy: injected failures are retried up
  /// to faults.max_retries times with exponential backoff, each retry on
  /// a fresh connection. Natural failures (dead server, expired cert,
  /// double 421) never retry. Updates the page's fetch/retry counters.
  FetchOutcome fetch_with_retry(PageState& page, const std::string& host,
                                const std::string& path,
                                fetch::Destination destination, bool privacy,
                                bool with_cookie, std::uint32_t size_bytes,
                                util::SimTime now);

  void preconnect(PageState& page, const std::string& host, bool privacy,
                  util::SimTime now);

  FetchOutcome fetch_h1(PageState& page, const std::string& host,
                        const std::string& path, int status,
                        std::uint32_t size_bytes, util::SimTime now);

  /// Runs one page (document + resource tree) against `state`, returning
  /// the load-finish time.
  util::SimTime run_page(PageState& state, const std::string& landing_domain,
                         const std::string& document_path,
                         const std::vector<web::Resource>& resources,
                         util::SimTime start_time);

  /// Closes sessions whose server-side idle timeout fires before `until`.
  void close_idle_sessions(PageState& state, util::SimTime until);

  const web::Ecosystem& eco_;
  dns::RecursiveResolver& resolver_;
  /// The loaded site's deployment, installed for the duration of a
  /// load()/visit() (same bracket as the resolver's fault injector and
  /// record overlay); null for hand-built sites published into eco_.
  const web::SiteDeployment* overlay_ = nullptr;
  BrowserOptions options_;
  std::uint64_t seed_;
  std::uint64_t next_session_id_ = 1;
  obs::Metrics* metrics_ = nullptr;
};

}  // namespace h2r::browser

#include "browser/browser.hpp"

#include <algorithm>
#include <functional>
#include <queue>
#include <tuple>

#include "fetch/request.hpp"
#include "net/connect.hpp"
#include "netlog/stitch.hpp"
#include "tls/handshake.hpp"
#include "util/strings.hpp"

namespace h2r::browser {

namespace {

/// Strips "https://" from an ASCII origin for the NetLog ORIGIN event.
std::string origin_to_host(const std::string& origin) {
  const std::size_t pos = origin.find("://");
  return pos == std::string::npos ? origin : origin.substr(pos + 3);
}

}  // namespace

Browser::Browser(const web::Ecosystem& eco, dns::RecursiveResolver& resolver,
                 BrowserOptions options, std::uint64_t seed)
    : eco_(eco), resolver_(resolver), options_(std::move(options)),
      seed_(seed) {}

util::SimTime Browser::rtt_to(const net::IpAddress& address) const {
  // Deterministic per-/24 RTT: base + [0, 40) ms, hashed from the /24's
  // text form without building a string.
  net::IpAddress::TextBuffer text{};
  const std::uint64_t h =
      util::hash_seed(0x5157, address.slash24().format(text));
  return options_.base_rtt + static_cast<util::SimTime>(h % 40);
}

const web::Server* Browser::server_at(
    const net::IpAddress& address) const noexcept {
  if (overlay_ != nullptr) {
    if (const web::Server* server = overlay_->server_at(address)) {
      return server;
    }
  }
  return eco_.server_at(address);
}

dns::Resolution Browser::resolve(PageState& page, const std::string& host,
                                 util::SimTime now) {
  dns::Resolution res = resolver_.resolve(host, now);
  page.log.record(netlog::EventType::kDnsResolved, now, 0,
                  netlog::DnsResolved{.host = host,
                                      .addresses = res.addresses,
                                      .from_cache = res.from_cache,
                                      .fault = res.injected_fault});
  if (page.trace_root >= 0) {
    const int span = page.result.trace.begin_span("dns.resolve", now,
                                                  page.trace_root);
    page.result.trace.spans[static_cast<std::size_t>(span)].attrs = {
        {"host", host}, {"from_cache", res.from_cache ? "1" : "0"}};
  }
  return res;
}

std::size_t Browser::acquire_session(PageState& page, const std::string& host,
                                     bool privacy, util::SimTime now,
                                     bool allow_pooling, bool fresh_connection,
                                     AcquireStatus& status) {
  status = AcquireStatus{};
  status.ok = true;

  // 1. Group hit: an existing (possibly still connecting) session for this
  //    exact host and privacy mode. A fault retry skips it — the whole
  //    point of the retry is a brand-new connection.
  if (!fresh_connection) {
    if (const std::size_t* hit = page.find_group(host, privacy)) {
      SessionEntry& entry = page.sessions[*hit];
      if (entry.session->is_open() && !entry.session->is_rejected(host)) {
        ++page.result.group_reuses;
        return *hit;
      }
    }
  }

  // 2. Resolve.
  const dns::Resolution res = resolve(page, host, now);
  if (!res.ok || res.addresses.empty()) {
    if (res.injected_fault) {
      status.injected_fault = true;
      page.log.record(netlog::EventType::kConnectFailed, now, 0,
                      netlog::ConnectFailed{.host = host, .cause = "dns"});
    }
    status.ok = false;
    return 0;
  }

  // 3. IP-based pooling (SpdySessionPool alias match): newest first, same
  //    privacy mode, same destination, certificate covering the host, not
  //    421-rejected, origin set permitting. In-flight sessions match too:
  //    Chromium parks the request until the handshake confirms the
  //    certificate — below this model's time resolution.
  if (allow_pooling && !fresh_connection && options_.enable_ip_pooling) {
    for (std::size_t i = page.sessions.size(); i-- > 0;) {
      SessionEntry& entry = page.sessions[i];
      http2::Session& session = *entry.session;
      if (!session.is_open() || session.privacy_mode() != privacy) continue;
      const bool ip_match =
          std::find(res.addresses.begin(), res.addresses.end(),
                    session.peer().address) != res.addresses.end() &&
          session.peer().port == 443;
      if (!ip_match || !session.allows_authority(host)) continue;
      page.log.record(netlog::EventType::kSessionAliasReused, now,
                      session.id(), netlog::HostOnly{.host = host});
      ++page.result.alias_reuses;
      page.group_slot(host, privacy) = i;  // register for future group hits
      return i;
    }
  }

  // 4. RFC 8336: an announced origin set lifts the same-IP requirement.
  if (allow_pooling && !fresh_connection && options_.support_origin_frame) {
    for (std::size_t i = page.sessions.size(); i-- > 0;) {
      SessionEntry& entry = page.sessions[i];
      http2::Session& session = *entry.session;
      if (!session.is_open() || session.privacy_mode() != privacy) continue;
      if (!session.has_origin_set()) continue;
      if (!session.allows_authority(host)) continue;
      page.log.record(
          netlog::EventType::kSessionAliasReused, now, session.id(),
          netlog::HostOnly{.host = host, .via_origin = true});
      ++page.result.origin_frame_reuses;
      page.group_slot(host, privacy) = i;
      return i;
    }
  }

  // 5. New connection. Address choice: first announced address; when the
  //    domain already has connections (a privacy-split reconnect), rotate
  //    through the answer list — Chromium's connect jobs do not pin the
  //    previous socket's address, so multi-IP answers surface here (the
  //    paper's same-domain-different-IP corner case).
  const std::size_t existing = page.domain_conns(host);
  const net::IpAddress address =
      res.addresses[existing % res.addresses.size()];
  const web::Server* server = server_at(address);
  if (server == nullptr) {
    status.ok = false;
    return 0;
  }
  if (!server->h2_enabled()) {
    status.ok = false;  // caller falls back to HTTP/1.1
    return 0;
  }

  // TCP establishment: an injected refusal/reset fails the attempt before
  // TLS; an injected latency spike stretches the handshake.
  const net::ConnectResult conn =
      net::simulate_connect(net::Endpoint{address, 443}, &page.plan, metrics_);
  if (!conn.ok) {
    status.ok = false;
    status.injected_fault = conn.injected_fault;
    page.log.record(
        netlog::EventType::kConnectFailed, now, 0,
        netlog::ConnectFailed{.host = host, .ip = address, .cause = "connect"});
    return 0;
  }

  tls::CertificatePtr cert = server->certificate_for(host);
  const tls::HandshakeResult tls_result =
      tls::simulate_handshake(cert, host, now, &page.plan, metrics_);
  if (!tls_result.ok) {
    status.ok = false;  // certificate errors are not ignored
    status.injected_fault = tls_result.injected_fault;
    if (tls_result.injected_fault) {
      page.log.record(
          netlog::EventType::kConnectFailed, now, 0,
          netlog::ConnectFailed{.host = host, .ip = address, .cause = "tls"});
    }
    return 0;
  }

  const bool use_h3 = options_.enable_http3 && server->h3_enabled();
  const util::SimTime rtt = rtt_to(address);
  // QUIC saves one handshake round trip.
  const util::SimTime handshake =
      (use_h3 ? 1 : 2) * rtt +
      static_cast<util::SimTime>(page.rng.uniform(0, 8)) +
      conn.latency_penalty;

  http2::Session::Params params;
  params.id = next_session_id_++;
  params.peer = net::Endpoint{address, 443};
  params.initial_authority = host;
  params.certificate = cert;
  params.privacy_mode = privacy;
  params.opened_at = now;
  params.peer_settings = options_.settings;
  params.local_settings = options_.settings;
  params.metrics = metrics_;

  SessionEntry entry;
  entry.session = std::make_unique<http2::Session>(std::move(params));
  entry.available_at = now + handshake;
  entry.last_activity = now;
  entry.idle_timeout = server->idle_timeout();
  entry.rtt = rtt;
  if (page.trace_root >= 0) {
    obs::Trace& trace = page.result.trace;
    entry.trace_span = trace.begin_span("h2.session", now, page.trace_root);
    trace.spans[static_cast<std::size_t>(entry.trace_span)].attrs = {
        {"host", host},
        {"ip", address.to_string()},
        {"protocol", use_h3 ? "h3" : "h2"}};
    const int hs = trace.begin_span("tls.handshake", now, entry.trace_span);
    trace.end_span(hs, entry.available_at);
  }

  page.log.record(netlog::EventType::kSessionCreated, now,
                  entry.session->id(),
                  netlog::SessionCreated{
                      .endpoint = net::Endpoint{address, 443},
                      .domain = host,
                      .h3 = use_h3,
                      .privacy = privacy,
                      .certificate = std::move(cert),
                      .operator_name = server->operator_name(),
                      .served = server->served_domains()});
  page.log.record(netlog::EventType::kSessionAvailable, entry.available_at,
                  entry.session->id());

  if (options_.support_origin_frame && server->origin_frame().has_value()) {
    entry.session->receive_origin_frame(*server->origin_frame());
    netlog::OriginFrame frame;
    for (const std::string& origin : server->origin_frame()->origins) {
      frame.origins.push_back(origin_to_host(origin));
    }
    page.log.record(netlog::EventType::kOriginFrame, entry.available_at,
                    entry.session->id(), std::move(frame));
  }

  page.sessions.push_back(std::move(entry));
  const std::size_t index = page.sessions.size() - 1;
  page.group_slot(host, privacy) = index;
  ++page.domain_conns(host);
  ++page.result.connections_opened;
  return index;
}

Browser::FetchOutcome Browser::fetch_h1(PageState& page,
                                        const std::string& host,
                                        const std::string& path, int status,
                                        std::uint32_t size_bytes,
                                        util::SimTime now) {
  // Minimal HTTP/1.1 model: one persistent connection per (host, privacy);
  // enough to emit HAR entries that the importer must filter out.
  auto [it, inserted] =
      page.h1_conns.emplace(std::make_pair(host, false),
                            -static_cast<std::int64_t>(page.h1_conns.size()) -
                                1000);
  (void)inserted;
  har::Entry e;
  e.started = now;
  e.time_ms = 40.0 + static_cast<double>(size_bytes) / options_.bytes_per_ms;
  e.url = "https://" + host + path;
  e.http_version = "http/1.1";
  e.status = status;
  e.connection_id = -it->second;  // positive, distinct from h2 ids
  e.request_id = "h1-" + std::to_string(page.result.h1_entries.size() + 1);
  const dns::Resolution res = resolver_.resolve(host, now);
  if (res.ok && !res.addresses.empty()) {
    e.server_ip = res.addresses.front().to_string();
  }
  page.result.h1_entries.push_back(std::move(e));
  FetchOutcome outcome;
  outcome.ok = true;
  outcome.finished_at =
      now + static_cast<util::SimTime>(
                40.0 + static_cast<double>(size_bytes) / options_.bytes_per_ms);
  return outcome;
}

Browser::FetchOutcome Browser::fetch(PageState& page, const std::string& host,
                                     const std::string& path,
                                     fetch::Destination destination,
                                     bool privacy, bool with_cookie,
                                     std::uint32_t size_bytes,
                                     util::SimTime now, bool is_retry,
                                     bool fresh_connection) {
  (void)destination;
  AcquireStatus acquired;
  const std::size_t index =
      acquire_session(page, host, privacy, now, /*allow_pooling=*/!is_retry,
                      fresh_connection, acquired);
  if (!acquired.ok) {
    FetchOutcome outcome;
    outcome.injected_fault = acquired.injected_fault;
    outcome.finished_at = now;  // connect-stage failures surface immediately
    if (!acquired.injected_fault) {
      // HTTP/1.1-only server? Serve over h1 so the HAR contains the entry.
      const dns::Resolution res = resolver_.resolve(host, now);
      if (res.ok && !res.addresses.empty()) {
        const web::Server* server = server_at(res.addresses.front());
        if (server != nullptr && !server->h2_enabled() &&
            server->certificate_for(host) != nullptr) {
          return fetch_h1(page, host, path, server->respond(host), size_bytes,
                          now);
        }
      }
    }
    return outcome;
  }

  SessionEntry& entry = page.sessions[index];
  http2::Session& session = *entry.session;
  const web::Server* server = server_at(session.peer().address);
  const int status = server != nullptr ? server->respond(host) : 200;

  http2::RequestEntry request;
  request.authority = host;
  request.path = path;
  request.included_credentials = with_cookie;
  request.started_at = now;
  const http2::StreamId stream = session.submit_request(request);
  page.log.record(netlog::EventType::kRequestStarted, now, session.id(),
                  netlog::RequestStarted{.domain = host, .stream = stream});

  const util::SimTime rtt = entry.rtt;
  const util::SimTime start = std::max(now, entry.available_at);

  // Mid-stream faults: the server resets this stream, or tears the whole
  // session down with a GOAWAY. Either way the response headers never
  // arrive — the failure surfaces one round trip after the request went
  // out on the wire.
  if (page.plan.fire(fault::FaultKind::kRstStream)) {
    const util::SimTime reset_at = start + rtt;
    session.reset_stream(stream, http2::ErrorCode::kRefusedStream, reset_at);
    page.log.record(
        netlog::EventType::kStreamReset, reset_at, session.id(),
        netlog::StreamReset{.stream = stream, .cause = "injected"});
    entry.last_activity = reset_at;
    FetchOutcome outcome;
    outcome.injected_fault = true;
    outcome.finished_at = reset_at;
    return outcome;
  }
  if (page.plan.fire(fault::FaultKind::kGoaway)) {
    const util::SimTime goaway_at = start + rtt;
    session.receive_goaway(http2::ErrorCode::kInternalError);
    session.reset_stream(stream, http2::ErrorCode::kRefusedStream, goaway_at);
    page.log.record(netlog::EventType::kStreamReset, goaway_at, session.id(),
                    netlog::StreamReset{.stream = stream, .cause = "goaway"});
    page.log.record(netlog::EventType::kSessionGoaway, goaway_at,
                    session.id(), netlog::Goaway{.cause = "injected"});
    session.close(goaway_at);
    page.log.record(netlog::EventType::kSessionClosed, goaway_at,
                    session.id());
    FetchOutcome outcome;
    outcome.injected_fault = true;
    outcome.finished_at = goaway_at;
    return outcome;
  }

  // Flow control: responses larger than the advertised window stall for
  // a round trip per window epoch until WINDOW_UPDATEs catch up.
  const int stalls = session.receive_response_data(stream, size_bytes);
  const util::SimTime finish =
      start + rtt * (1 + stalls) +
      static_cast<util::SimTime>(static_cast<double>(size_bytes) /
                                 options_.bytes_per_ms) +
      static_cast<util::SimTime>(page.rng.uniform(0, 12));
  session.complete_request(stream, status, finish);
  page.log.record(netlog::EventType::kRequestFinished, finish, session.id(),
                  netlog::RequestFinished{.stream = stream, .status = status});
  entry.last_activity = finish;

  if (status == 421) {
    // Server refuses the coalesced authority: mark and retry once on a
    // dedicated connection (RFC 7540 §9.1.2).
    page.log.record(netlog::EventType::kMisdirected, finish, session.id(),
                    netlog::HostOnly{.host = host});
    ++page.result.misdirected_retries;
    if (!is_retry) {
      return fetch(page, host, path, destination, privacy, with_cookie,
                   size_bytes, finish, /*is_retry=*/true,
                   /*fresh_connection=*/false);
    }
    FetchOutcome outcome;
    outcome.finished_at = finish;  // a natural failure; never fault-retried
    return outcome;
  }

  FetchOutcome outcome;
  outcome.ok = true;
  outcome.finished_at = finish;
  return outcome;
}

Browser::FetchOutcome Browser::fetch_with_retry(
    PageState& page, const std::string& host, const std::string& path,
    fetch::Destination destination, bool privacy, bool with_cookie,
    std::uint32_t size_bytes, util::SimTime now) {
  ++page.result.failures.fetch_attempts;
  FetchOutcome outcome = fetch(page, host, path, destination, privacy,
                               with_cookie, size_bytes, now,
                               /*is_retry=*/false, /*fresh_connection=*/false);
  int attempt = 0;
  while (!outcome.ok && outcome.injected_fault &&
         attempt < options_.faults.max_retries) {
    // Exponential backoff from the moment the failure surfaced, then a
    // clean slate: new DNS query, new connection (the failed one may be
    // gone, wedged, or resolving to a dead address).
    const util::SimTime failed_at = std::max(now, outcome.finished_at);
    const util::SimTime backoff = options_.faults.backoff_base << attempt;
    const util::SimTime retry_at = failed_at + backoff;
    ++attempt;
    ++page.result.failures.retries;
    page.log.record(netlog::EventType::kFetchRetry, retry_at, 0,
                    netlog::FetchRetry{.host = host,
                                       .attempt = attempt,
                                       .backoff_ms = backoff});
    outcome = fetch(page, host, path, destination, privacy, with_cookie,
                    size_bytes, retry_at, /*is_retry=*/false,
                    /*fresh_connection=*/true);
  }
  if (outcome.ok) {
    ++page.result.failures.successful_fetches;
    if (attempt > 0) ++page.result.failures.retry_successes;
  } else {
    ++page.result.failures.failed_fetches;
  }
  return outcome;
}

void Browser::preconnect(PageState& page, const std::string& host,
                         bool privacy, util::SimTime now) {
  if (page.find_group(host, privacy) != nullptr) return;
  AcquireStatus acquired;
  const std::size_t index =
      acquire_session(page, host, privacy, now, /*allow_pooling=*/true,
                      /*fresh_connection=*/false, acquired);
  if (acquired.ok) {
    page.log.record(netlog::EventType::kPreconnect, now,
                    page.sessions[index].session->id(),
                    netlog::HostOnly{.host = host});
  }
}

util::SimTime Browser::run_page(PageState& page,
                                const std::string& landing_domain,
                                const std::string& document_path,
                                const std::vector<web::Resource>& resources,
                                util::SimTime start_time) {
  struct Pending {
    util::SimTime time = 0;
    const web::Resource* resource = nullptr;
    std::size_t seq = 0;

    bool operator>(const Pending& other) const noexcept {
      return std::tie(time, seq) > std::tie(other.time, other.seq);
    }
  };
  // Reserve for the initial schedule up front; only late-discovered
  // children (import chains) can grow the heap afterwards.
  std::vector<Pending> storage;
  storage.reserve(resources.size() + 8);
  std::priority_queue<Pending, std::vector<Pending>, std::greater<>> queue{
      std::greater<>{}, std::move(storage)};
  std::size_t seq = 0;

  // A fetched resource logs a handful of events (resolve, connect,
  // request start/finish); reserving here keeps the per-page event
  // buffer from doubling through its growth sequence.
  page.log.reserve(page.log.size() + resources.size() * 6 + 16);

  const fetch::Origin document_origin = fetch::Origin::https(landing_domain);

  auto fetch_resource = [&](const web::Resource& resource,
                            util::SimTime now) -> FetchOutcome {
    const std::string host = util::to_lower(
        resource.domain_for(options_.vantage_region));
    if (resource.preconnect) {
      const fetch::RequestInit init = fetch::default_init_for(
          fetch::Destination::kXhr, resource.crossorigin_anonymous);
      fetch::FetchRequest freq;
      freq.url_origin = fetch::Origin::https(host);
      freq.mode = init.mode;
      freq.credentials = resource.crossorigin_anonymous
                             ? fetch::CredentialsMode::kSameOrigin
                             : fetch::CredentialsMode::kInclude;
      freq.document_origin = document_origin;
      const bool privacy = options_.follow_fetch_credentials &&
                           fetch::privacy_mode_enabled(freq);
      preconnect(page, host, privacy, now);
      return {};
    }
    const fetch::RequestInit init = fetch::default_init_for(
        resource.destination, resource.crossorigin_anonymous);
    fetch::FetchRequest freq;
    freq.url_origin = fetch::Origin::https(host);
    freq.path = resource.path;
    freq.destination = resource.destination;
    freq.mode = init.mode;
    freq.credentials = resource.credentials_override.value_or(init.credentials);
    freq.document_origin = document_origin;
    const bool with_cookie = fetch::include_credentials(freq);
    const bool privacy =
        options_.follow_fetch_credentials && !with_cookie;
    return fetch_with_retry(page, host, resource.path, resource.destination,
                            privacy, with_cookie, resource.size_bytes, now);
  };

  // The document itself.
  web::Resource document;
  document.domain = landing_domain;
  document.path = document_path;
  document.destination = fetch::Destination::kDocument;
  document.size_bytes = 60 * 1024;
  const FetchOutcome doc = fetch_resource(document, start_time);
  page.document_ok = doc.ok;
  const util::SimTime dom_ready =
      doc.ok ? doc.finished_at
             : start_time + util::milliseconds(150);  // h1 fallback timing

  for (const web::Resource& r : resources) {
    queue.push(Pending{dom_ready + r.start_delay, &r, seq++});
  }

  // Watchdog: budget for the whole page, measured from navigation start.
  const util::SimTime deadline_at =
      options_.site_deadline > 0 ? start_time + options_.site_deadline
                                 : util::kSimTimeMax;
  bool deadline_fired = false;

  util::SimTime load_end = dom_ready;
  while (!queue.empty()) {
    const Pending pending = queue.top();
    queue.pop();
    if (pending.time >= deadline_at) {
      // The load ran past its budget: abandon this resource (and its
      // children, which would start even later) instead of stalling the
      // worker. The site degrades exactly like a fetch that failed after
      // retries — the page survives, minus the abandoned subtree.
      if (!deadline_fired) {
        deadline_fired = true;
        page.result.failures.deadline_exceeded += 1;
        page.log.record(netlog::EventType::kDeadlineExceeded, deadline_at, 0,
                        netlog::DeadlineExceeded{
                            .budget_ms = options_.site_deadline,
                            .pending = queue.size() + 1});
      }
      if (!pending.resource->preconnect) {
        ++page.result.failures.degraded_resources;
      }
      continue;
    }
    const FetchOutcome outcome = fetch_resource(*pending.resource,
                                                pending.time);
    if (pending.resource->preconnect) continue;  // no response, no children
    if (outcome.ok) {
      load_end = std::max(load_end, outcome.finished_at);
    } else {
      // Graceful degradation: give up on THIS resource only. A failed
      // script/img must not abort the rest of the page — the seed dropped
      // the failed resource's children, understating redundancy on
      // partially-failing sites.
      ++page.result.failures.degraded_resources;
    }
    const util::SimTime children_at =
        outcome.finished_at > 0 ? outcome.finished_at : pending.time;
    for (const web::Resource& child : pending.resource->children) {
      queue.push(Pending{children_at + child.start_delay, &child, seq++});
    }
  }
  // An abandoned load ends at the deadline, like a watchdog killing the
  // page; in-flight fetches that started before the cut still count.
  return deadline_fired ? std::min(load_end, deadline_at) : load_end;
}

void Browser::close_idle_sessions(PageState& page, util::SimTime until) {
  for (SessionEntry& entry : page.sessions) {
    if (!entry.session->is_open()) continue;
    if (!entry.idle_timeout.has_value()) continue;
    const util::SimTime close_at = entry.last_activity + *entry.idle_timeout;
    if (close_at <= until) {
      page.log.record(netlog::EventType::kSessionGoaway, close_at,
                      entry.session->id(), netlog::Goaway{});
      page.log.record(netlog::EventType::kSessionClosed, close_at,
                      entry.session->id());
      entry.session->receive_goaway(http2::ErrorCode::kNoError);
      entry.session->close(close_at);
    }
  }
}

PageLoadResult Browser::load(const web::Website& site,
                             util::SimTime start_time) {
  PageState page;
  page.rng = util::Rng{util::hash_seed(seed_, site.url)};
  // Browser state is fresh per load (the paper restarts the browser per
  // site); restarting the session-id counter too keeps the observation a
  // pure function of (seed, site), independent of previously loaded sites.
  next_session_id_ = 1;
  page.result.started_at = start_time;
  // The fault schedule is a pure function of (fault seed, browser seed,
  // site) — like everything else per site, so faulted crawls stay
  // thread-count invariant. The resolver consults it for this load only.
  page.plan = fault::FaultPlan{options_.faults, seed_, site.url};
  resolver_.set_fault_injector(&page.plan);
  // Generated sites carry their hosting cluster as an overlay: server and
  // DNS lookups consult it before the shared ecosystem for this load only.
  overlay_ = site.deployment.get();
  resolver_.set_overlay(overlay_ != nullptr ? &overlay_->records : nullptr);
  if (options_.record_trace) {
    page.result.trace.site = site.url;
    page.trace_root = page.result.trace.begin_span("page.load", start_time);
  }

  const util::SimTime load_end =
      run_page(page, site.landing_domain, "/", site.resources, start_time);
  page.result.finished_at = load_end;

  // Post-load observation window: idle servers close their connections.
  close_idle_sessions(page, load_end + options_.post_load_wait);
  resolver_.set_fault_injector(nullptr);
  resolver_.set_overlay(nullptr);
  overlay_ = nullptr;

  if (page.trace_root >= 0) {
    // A session span covers the connection's observed lifetime: close
    // time when the server hung up inside the observation window, load
    // end otherwise (the measurement stops watching there).
    for (const SessionEntry& entry : page.sessions) {
      if (entry.trace_span < 0) continue;
      page.result.trace.end_span(entry.trace_span,
                                 entry.session->is_closed()
                                     ? entry.session->closed_at()
                                     : load_end);
    }
    page.result.trace.end_span(page.trace_root, load_end);
  }
  if (metrics_ != nullptr) {
    metrics_->add("browser.pages");
    metrics_->add("browser.connections_opened",
                  page.result.connections_opened);
    metrics_->add("browser.group_reuses", page.result.group_reuses);
    metrics_->add("browser.alias_reuses", page.result.alias_reuses);
    metrics_->add("browser.origin_frame_reuses",
                  page.result.origin_frame_reuses);
    metrics_->add("browser.misdirected_retries",
                  page.result.misdirected_retries);
    metrics_->add("browser.fetch_retries", page.result.failures.retries);
    metrics_->add("browser.failed_fetches",
                  page.result.failures.failed_fetches);
    metrics_->add("browser.degraded_resources",
                  page.result.failures.degraded_resources);
    metrics_->gauge_max(
        "browser.max_sessions_per_page",
        static_cast<std::int64_t>(page.sessions.size()));
    metrics_->observe("browser.page_load_ms", load_end - start_time);
  }

  page.result.observation = netlog::stitch_site(site.url, page.log);
  // A failed document fetch (after any fault retries) still aborts the
  // crawl of the site, like Browsertime recording a navigation failure —
  // but failed SUB-resources merely degrade the page (run_page).
  page.result.reachable = page.document_ok;
  page.result.failures.add(page.plan.injected());
  if (page.result.failures.degraded_resources > 0) {
    page.result.failures.degraded_sites = 1;
  }
  page.result.log = std::move(page.log);
  return std::move(page.result);
}

VisitResult Browser::visit(
    const web::Website& site,
    const std::vector<std::vector<web::Resource>>& internal_pages,
    util::SimTime start_time, util::SimTime dwell) {
  PageState page;
  page.rng = util::Rng{util::hash_seed(seed_, site.url)};
  next_session_id_ = 1;
  page.result.started_at = start_time;
  page.plan = fault::FaultPlan{options_.faults, seed_, site.url};
  resolver_.set_fault_injector(&page.plan);
  overlay_ = site.deployment.get();
  resolver_.set_overlay(overlay_ != nullptr ? &overlay_->records : nullptr);

  VisitResult result;
  util::SimTime now = start_time;

  auto snapshot = [&page]() {
    VisitPageStats s;
    s.connections_opened = page.result.connections_opened;
    s.group_reuses = page.result.group_reuses;
    s.alias_reuses = page.result.alias_reuses;
    return s;
  };
  auto count_requests = [&page]() {
    std::uint64_t total = 0;
    for (const SessionEntry& entry : page.sessions) {
      total += entry.session->requests().size();
    }
    return total + page.result.h1_entries.size();
  };

  for (std::size_t i = 0; i <= internal_pages.size(); ++i) {
    const VisitPageStats before = snapshot();
    const std::uint64_t requests_before = count_requests();
    const std::string path =
        i == 0 ? "/" : "/page" + std::to_string(i);
    const auto& resources = i == 0 ? site.resources : internal_pages[i - 1];

    const util::SimTime load_end =
        run_page(page, site.landing_domain, path, resources, now);

    VisitPageStats stats = snapshot();
    stats.connections_opened -= before.connections_opened;
    stats.group_reuses -= before.group_reuses;
    stats.alias_reuses -= before.alias_reuses;
    stats.requests = count_requests() - requests_before;
    stats.started_at = now;
    stats.finished_at = load_end;
    result.pages.push_back(stats);

    now = load_end + dwell;
    // Think time between pages: idle servers may close in the gap.
    close_idle_sessions(page, now);
  }

  close_idle_sessions(page, now + options_.post_load_wait);
  resolver_.set_fault_injector(nullptr);
  resolver_.set_overlay(nullptr);
  overlay_ = nullptr;
  result.observation = netlog::stitch_site(site.url, page.log);
  result.log = std::move(page.log);
  return result;
}

}  // namespace h2r::browser

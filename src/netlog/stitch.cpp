#include "netlog/stitch.hpp"

#include <algorithm>
#include <utility>

#include "util/strings.hpp"

namespace h2r::netlog {

namespace {

/// A session being rebuilt, plus where each of its streams' requests sit.
struct OpenSession {
  core::ConnectionRecord record;
  /// (stream id, index into record.requests); the latest start of a
  /// stream id wins, so lookups scan from the back.
  std::vector<std::pair<std::uint64_t, std::size_t>> streams;

  core::RequestRecord* request(std::uint64_t stream) {
    for (auto it = streams.rbegin(); it != streams.rend(); ++it) {
      if (it->first == stream) return &record.requests[it->second];
    }
    return nullptr;
  }
};

/// `items` without its empty entries.
std::vector<std::string> non_empty(const std::vector<std::string>& items) {
  std::vector<std::string> out;
  out.reserve(items.size());
  for (const std::string& item : items) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

}  // namespace

core::SiteObservation stitch_site(const std::string& site_url,
                                  const NetLog& log) {
  core::SiteObservation site;
  site.site_url = site_url;

  // A page holds a few dozen sessions at most: a flat list searched from
  // the newest beats a map's node per session.
  std::vector<OpenSession> sessions;
  auto find = [&sessions](std::uint64_t id) -> OpenSession* {
    for (auto it = sessions.rbegin(); it != sessions.rend(); ++it) {
      if (it->record.id == id) return &*it;
    }
    return nullptr;
  };

  for (const Event& e : log.events()) {
    switch (e.type) {
      case EventType::kSessionCreated: {
        const auto& created = std::get<SessionCreated>(e.payload);
        // A re-created id replaces the earlier session.
        OpenSession* session = find(e.source_id);
        if (session != nullptr) {
          *session = OpenSession{};
        } else {
          session = &sessions.emplace_back();
        }
        core::ConnectionRecord& rec = session->record;
        rec.id = e.source_id;
        rec.endpoint = created.endpoint;
        rec.initial_domain = util::to_lower(created.domain);
        rec.opened_at = e.time;
        if (created.certificate != nullptr) {
          rec.san_dns_names = non_empty(created.certificate->san_dns_names());
          rec.issuer_organization =
              created.certificate->issuer_organization();
          rec.certificate_serial = created.certificate->serial();
        }
        rec.has_certificate = !rec.san_dns_names.empty();
        if (created.h3) rec.protocol = "h3";
        rec.privacy = created.privacy;
        rec.operator_name = created.operator_name;
        rec.served_domains = non_empty(created.served);
        break;
      }
      case EventType::kSessionClosed: {
        if (OpenSession* session = find(e.source_id)) {
          session->record.closed_at = e.time;
        }
        break;
      }
      case EventType::kOriginFrame: {
        if (OpenSession* session = find(e.source_id)) {
          session->record.origin_set =
              non_empty(std::get<OriginFrame>(e.payload).origins);
        }
        break;
      }
      case EventType::kMisdirected: {
        if (OpenSession* session = find(e.source_id)) {
          session->record.excluded_domains.push_back(
              util::to_lower(std::get<HostOnly>(e.payload).host));
        }
        break;
      }
      case EventType::kRequestStarted: {
        OpenSession* session = find(e.source_id);
        if (session == nullptr) break;
        const auto& started = std::get<RequestStarted>(e.payload);
        core::RequestRecord req;
        req.started_at = e.time;
        req.domain = util::to_lower(started.domain);
        session->streams.emplace_back(started.stream,
                                      session->record.requests.size());
        session->record.requests.push_back(std::move(req));
        break;
      }
      case EventType::kRequestFinished: {
        OpenSession* session = find(e.source_id);
        if (session == nullptr) break;
        const auto& finished = std::get<RequestFinished>(e.payload);
        if (core::RequestRecord* req = session->request(finished.stream)) {
          req->finished_at = e.time;
          req->status = finished.status;
        }
        break;
      }
      case EventType::kStreamReset: {
        // Aborted exchange: without this the request would keep its
        // defaults (status 200, finished_at 0) and look successful.
        OpenSession* session = find(e.source_id);
        if (session == nullptr) break;
        const auto& reset = std::get<StreamReset>(e.payload);
        if (core::RequestRecord* req = session->request(reset.stream)) {
          req->finished_at = e.time;
          req->status = 0;
        }
        break;
      }
      case EventType::kDnsResolved:
      case EventType::kSessionAvailable:
      case EventType::kSessionGoaway:
      case EventType::kSessionAliasReused:
      case EventType::kPreconnect:
      case EventType::kConnectFailed:
      case EventType::kFetchRetry:
      case EventType::kDeadlineExceeded:
        break;  // informational only
    }
  }

  site.connections.reserve(sessions.size());
  for (OpenSession& session : sessions) {
    site.connections.push_back(std::move(session.record));
  }
  // Session ids are unique, so (opened_at, id) is a total order and the
  // result does not depend on the order sessions were first seen in.
  std::sort(site.connections.begin(), site.connections.end(),
            [](const core::ConnectionRecord& a,
               const core::ConnectionRecord& b) {
              if (a.opened_at != b.opened_at) return a.opened_at < b.opened_at;
              return a.id < b.id;
            });
  return site;
}

}  // namespace h2r::netlog

#include "har/import.hpp"

#include <algorithm>
#include <map>
#include <set>

#include "net/ip.hpp"
#include "util/strings.hpp"

namespace h2r::har {

void ImportStats::add(const ImportStats& other) noexcept {
  util::merge_fields(*this, other);
}

namespace {

bool valid_method(const std::string& method) {
  static const std::set<std::string> kMethods = {
      "GET", "POST", "HEAD", "PUT", "DELETE", "OPTIONS", "PATCH", "CONNECT",
  };
  return kMethods.count(method) > 0;
}

bool is_h2_version(const std::string& version) {
  return version == "h2" || version == "HTTP/2" || version == "http/2" ||
         version == "http/2.0";
}

bool is_h3_version(const std::string& version) {
  return version == "h3" || version == "http/2+quic/46" || version == "h3-29";
}

bool is_h1_version(const std::string& version) {
  return version == "http/1.1" || version == "HTTP/1.1" ||
         version == "http/1.0" || version == "HTTP/1.0";
}

}  // namespace

core::SiteObservation import_site(const Log& log, ImportStats* stats) {
  ImportStats local;
  core::SiteObservation site;
  site.site_url = log.page.url;

  struct Conn {
    core::ConnectionRecord record;
    bool ip_set = false;
  };
  std::map<std::int64_t, Conn> conns;

  for (const Entry& e : log.entries) {
    ++local.total_entries;

    // Protocol split first: h1/h3 traffic is invisible to the analysis.
    if (is_h3_version(e.http_version)) {
      ++local.h3_entries;
      continue;
    }
    if (is_h1_version(e.http_version)) {
      ++local.h1_entries;
      continue;
    }
    if (!is_h2_version(e.http_version)) {
      ++local.h2_entries;  // claims h2-ish but malformed
      ++local.invalid_version;
      ++site.filtered_requests;
      continue;
    }
    ++local.h2_entries;

    // §4.3 consistency filters, in the paper's order.
    if (e.connection_id == 0) {
      ++local.socket_zero;
      ++site.filtered_requests;
      continue;
    }
    if (e.connection_id < 0) {
      ++local.missing_ip;  // no socket —> cannot attribute
      ++site.filtered_requests;
      continue;
    }
    auto ip = net::IpAddress::parse(e.server_ip);
    if (e.server_ip.empty() || !ip.has_value()) {
      ++local.missing_ip;
      ++site.filtered_requests;
      continue;
    }
    if (!valid_method(e.method)) {
      ++local.invalid_method;
      ++site.filtered_requests;
      continue;
    }
    if (e.status < 100 || e.status > 599) {
      ++local.invalid_status;
      ++site.filtered_requests;
      continue;
    }
    if (e.pageref != log.page.id) {
      ++local.wrong_pageref;
      ++site.filtered_requests;
      continue;
    }
    if (e.request_id.empty()) {
      ++local.missing_request_id;
      ++site.filtered_requests;
      continue;
    }
    if (!e.has_security_details || e.san_list.empty()) {
      ++local.missing_certificate;
      ++site.filtered_requests;
      continue;
    }

    Conn& conn = conns[e.connection_id];
    if (conn.ip_set && conn.record.endpoint.address != ip.value()) {
      ++local.inconsistent_ip;
      ++site.filtered_requests;
      continue;
    }
    if (!conn.ip_set) {
      conn.record.id = static_cast<std::uint64_t>(e.connection_id);
      conn.record.endpoint.address = ip.value();
      conn.record.endpoint.port = 443;
      conn.record.san_dns_names = e.san_list;
      conn.record.issuer_organization = e.issuer;
      conn.record.certificate_serial = e.cert_serial;
      conn.record.has_certificate = true;
      conn.ip_set = true;
    }

    core::RequestRecord req;
    req.started_at = e.started;
    req.finished_at = e.started + static_cast<util::SimTime>(e.time_ms);
    req.domain = util::to_lower(url_host(e.url));
    req.method = e.method;
    req.status = e.status;

    // HTTP 421: the server explicitly refuses this authority here; mark
    // the exclusion so the classifier ignores the pair (§3, §4.3).
    if (e.status == 421) {
      conn.record.excluded_domains.push_back(req.domain);
    }
    conn.record.requests.push_back(std::move(req));
    ++local.used_entries;
  }

  for (auto& [id, conn] : conns) {
    (void)id;
    if (conn.record.requests.empty()) continue;
    core::ConnectionRecord& rec = conn.record;
    // Request-level data only: the connection "opens" at its first request
    // and its initial domain is the first request's host.
    std::stable_sort(rec.requests.begin(), rec.requests.end(),
                     [](const core::RequestRecord& a,
                        const core::RequestRecord& b) {
                       return a.started_at < b.started_at;
                     });
    rec.opened_at = rec.requests.front().started_at;
    rec.initial_domain = rec.requests.front().domain;
    rec.closed_at = std::nullopt;  // HAR has no close events
    site.connections.push_back(std::move(rec));
  }
  std::stable_sort(site.connections.begin(), site.connections.end(),
                   [](const core::ConnectionRecord& a,
                      const core::ConnectionRecord& b) {
                     if (a.opened_at != b.opened_at) {
                       return a.opened_at < b.opened_at;
                     }
                     return a.id < b.id;
                   });

  if (stats != nullptr) stats->add(local);
  return site;
}

}  // namespace h2r::har

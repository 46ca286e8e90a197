#include "core/observation_json.hpp"

namespace h2r::core {

namespace {

// The codec is hand-written for its lenient defaults and optional keys.
// Every function binds all members of its record, so a member added
// without codec support fails to compile here.

json::Value request_to_json(const RequestRecord& req) {
  const auto& [started_at, finished_at, domain, method, status] = req;
  json::Object obj;
  obj.set("started_at", static_cast<std::int64_t>(started_at));
  obj.set("finished_at", static_cast<std::int64_t>(finished_at));
  obj.set("domain", domain);
  obj.set("method", method);
  obj.set("status", static_cast<std::int64_t>(status));
  return json::Value{std::move(obj)};
}

util::Expected<RequestRecord> request_from_json(const json::Value& value) {
  RequestRecord req;
  auto& [started_at, finished_at, domain, method, status] = req;
  started_at = value["started_at"].as_int();
  finished_at = value["finished_at"].as_int();
  domain = value["domain"].as_string();
  method = value["method"].as_string();
  status = static_cast<int>(value["status"].as_int());
  if (domain.empty()) {
    return util::unexpected(util::Error{"request without domain"});
  }
  return req;
}

json::Value strings_json(const std::vector<std::string>& strings) {
  json::Array out;
  for (const std::string& s : strings) out.emplace_back(s);
  return json::Value{std::move(out)};
}

std::vector<std::string> strings_from_json(const json::Value& value) {
  std::vector<std::string> out;
  for (const json::Value& s : value.as_array()) out.push_back(s.as_string());
  return out;
}

json::Value connection_to_json(const ConnectionRecord& conn) {
  const auto& [id, endpoint, initial_domain, has_certificate, san_dns_names,
               issuer_organization, certificate_serial, protocol, opened_at,
               closed_at, requests, excluded_domains, origin_set, privacy,
               operator_name, served_domains] = conn;
  json::Object obj;
  obj.set("id", static_cast<std::int64_t>(id));
  obj.set("ip", endpoint.address.to_string());
  obj.set("port", static_cast<std::int64_t>(endpoint.port));
  obj.set("initial_domain", initial_domain);
  obj.set("protocol", protocol);
  obj.set("has_certificate", has_certificate);
  obj.set("san_dns_names", strings_json(san_dns_names));
  obj.set("issuer", issuer_organization);
  obj.set("certificate_serial", static_cast<std::int64_t>(certificate_serial));
  obj.set("opened_at", static_cast<std::int64_t>(opened_at));
  if (closed_at.has_value()) {
    obj.set("closed_at", static_cast<std::int64_t>(*closed_at));
  }
  json::Array request_array;
  for (const RequestRecord& req : requests) {
    request_array.emplace_back(request_to_json(req));
  }
  obj.set("requests", std::move(request_array));
  obj.set("excluded_domains", strings_json(excluded_domains));
  if (origin_set.has_value()) obj.set("origin_set", strings_json(*origin_set));
  // Policy-replay provenance: emitted only when present so cached
  // observations from earlier runs stay byte-identical.
  if (privacy) obj.set("privacy", true);
  if (!operator_name.empty()) obj.set("operator", operator_name);
  if (!served_domains.empty()) {
    obj.set("served_domains", strings_json(served_domains));
  }
  return json::Value{std::move(obj)};
}

util::Expected<ConnectionRecord> connection_from_json(
    const json::Value& value) {
  ConnectionRecord conn;
  auto& [id, endpoint, initial_domain, has_certificate, san_dns_names,
         issuer_organization, certificate_serial, protocol, opened_at,
         closed_at, requests, excluded_domains, origin_set, privacy,
         operator_name, served_domains] = conn;
  id = static_cast<std::uint64_t>(value["id"].as_int());
  const auto ip = net::IpAddress::parse(value["ip"].as_string());
  if (!ip.has_value()) {
    return util::unexpected(util::Error{"bad connection ip"});
  }
  endpoint.address = ip.value();
  endpoint.port = static_cast<std::uint16_t>(value["port"].as_int(443));
  initial_domain = value["initial_domain"].as_string();
  if (value["protocol"].is_string()) protocol = value["protocol"].as_string();
  has_certificate = value["has_certificate"].as_bool(true);
  san_dns_names = strings_from_json(value["san_dns_names"]);
  issuer_organization = value["issuer"].as_string();
  certificate_serial =
      static_cast<std::uint64_t>(value["certificate_serial"].as_int());
  opened_at = value["opened_at"].as_int();
  if (value["closed_at"].is_number()) closed_at = value["closed_at"].as_int();
  for (const json::Value& req : value["requests"].as_array()) {
    auto parsed = request_from_json(req);
    if (!parsed) return util::unexpected(parsed.error());
    requests.push_back(std::move(parsed.value()));
  }
  excluded_domains = strings_from_json(value["excluded_domains"]);
  if (value["origin_set"].is_array()) {
    origin_set = strings_from_json(value["origin_set"]);
  }
  privacy = value["privacy"].as_bool(false);
  if (value["operator"].is_string()) {
    operator_name = value["operator"].as_string();
  }
  served_domains = strings_from_json(value["served_domains"]);
  return conn;
}

}  // namespace

json::Value to_json(const SiteObservation& site) {
  const auto& [site_url, reachable, connections, filtered_requests] = site;
  json::Object obj;
  obj.set("site", site_url);
  obj.set("reachable", reachable);
  obj.set("filtered_requests", static_cast<std::int64_t>(filtered_requests));
  json::Array connection_array;
  for (const ConnectionRecord& conn : connections) {
    connection_array.emplace_back(connection_to_json(conn));
  }
  obj.set("connections", std::move(connection_array));
  return json::Value{std::move(obj)};
}

util::Expected<SiteObservation> observation_from_json(
    const json::Value& value) {
  SiteObservation site;
  auto& [site_url, reachable, connections, filtered_requests] = site;
  site_url = value["site"].as_string();
  reachable = value["reachable"].as_bool(true);
  filtered_requests =
      static_cast<std::uint64_t>(value["filtered_requests"].as_int());
  for (const json::Value& conn : value["connections"].as_array()) {
    auto parsed = connection_from_json(conn);
    if (!parsed) return util::unexpected(parsed.error());
    connections.push_back(std::move(parsed.value()));
  }
  return site;
}

json::Value dataset_to_json(const std::vector<SiteObservation>& sites) {
  json::Array array;
  array.reserve(sites.size());
  for (const SiteObservation& site : sites) {
    array.emplace_back(to_json(site));
  }
  json::Object root;
  root.set("sites", std::move(array));
  return json::Value{std::move(root)};
}

util::Expected<std::vector<SiteObservation>> dataset_from_json(
    const json::Value& value) {
  if (!value["sites"].is_array()) {
    return util::unexpected(util::Error{"missing sites array"});
  }
  std::vector<SiteObservation> out;
  for (const json::Value& site : value["sites"].as_array()) {
    auto parsed = observation_from_json(site);
    if (!parsed) return util::unexpected(parsed.error());
    out.push_back(std::move(parsed.value()));
  }
  return out;
}

}  // namespace h2r::core

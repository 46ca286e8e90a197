#include "har/har.hpp"

#include "util/strings.hpp"

namespace h2r::har {

std::string_view url_host(std::string_view url) noexcept {
  const std::size_t scheme = url.find("://");
  std::string_view rest =
      scheme == std::string_view::npos ? url : url.substr(scheme + 3);
  const std::size_t slash = rest.find('/');
  if (slash != std::string_view::npos) rest = rest.substr(0, slash);
  const std::size_t colon = rest.find(':');
  if (colon != std::string_view::npos) rest = rest.substr(0, colon);
  return rest;
}

std::string_view url_path(std::string_view url) noexcept {
  const std::size_t scheme = url.find("://");
  const std::string_view rest =
      scheme == std::string_view::npos ? url : url.substr(scheme + 3);
  const std::size_t slash = rest.find('/');
  return slash == std::string_view::npos ? std::string_view{"/"}
                                         : rest.substr(slash);
}

std::vector<Page> Log::all_pages() const {
  std::vector<Page> out;
  out.reserve(1 + extra_pages.size());
  out.push_back(page);
  out.insert(out.end(), extra_pages.begin(), extra_pages.end());
  return out;
}

std::vector<Log> split_pages(const Log& log) {
  std::vector<Log> out;
  for (const Page& page : log.all_pages()) {
    Log single;
    single.page = page;
    out.push_back(std::move(single));
  }
  for (const Entry& entry : log.entries) {
    bool assigned = false;
    for (Log& single : out) {
      if (single.page.id == entry.pageref) {
        single.entries.push_back(entry);
        assigned = true;
        break;
      }
    }
    if (!assigned && !out.empty()) {
      out.front().entries.push_back(entry);  // wrong pageref: filtered later
    }
  }
  return out;
}

// The codec speaks the external HAR format, so it stays hand-written.
// Every function binds all members of its record, so a member added
// without codec support fails to compile here.
namespace {

json::Value page_to_json(const Page& page) {
  const auto& [id, url, started] = page;
  json::Object obj;
  obj.set("id", id);
  obj.set("title", url);
  obj.set("startedDateTime", static_cast<std::int64_t>(started));
  return json::Value{std::move(obj)};
}

Page page_from_json(const json::Value& value) {
  Page page;
  auto& [id, url, started] = page;
  id = value["id"].as_string();
  url = value["title"].as_string();
  started = value["startedDateTime"].as_int();
  return page;
}

json::Value entry_to_json(const Entry& e) {
  const auto& [pageref, request_id, started, time_ms, method, url,
               http_version, status, server_ip, connection_id,
               has_security_details, san_list, issuer, cert_serial] = e;
  json::Object request;
  request.set("method", method);
  request.set("url", url);
  request.set("httpVersion", http_version);

  json::Object response;
  response.set("status", static_cast<std::int64_t>(status));
  response.set("httpVersion", http_version);

  json::Object entry;
  entry.set("pageref", pageref);
  if (!request_id.empty()) entry.set("_request_id", request_id);
  entry.set("startedDateTime", static_cast<std::int64_t>(started));
  entry.set("time", time_ms);
  entry.set("request", std::move(request));
  entry.set("response", std::move(response));
  if (!server_ip.empty()) entry.set("serverIPAddress", server_ip);
  if (connection_id >= 0) {
    entry.set("connection", std::to_string(connection_id));
  }
  if (has_security_details) {
    json::Object sec;
    json::Array sans;
    for (const std::string& san : san_list) sans.emplace_back(san);
    sec.set("sanList", std::move(sans));
    sec.set("issuer", issuer);
    sec.set("serialNumber", std::to_string(cert_serial));
    entry.set("_securityDetails", std::move(sec));
  }
  return json::Value{std::move(entry)};
}

Entry entry_from_json(const json::Value& v) {
  Entry e;
  auto& [pageref, request_id, started, time_ms, method, url, http_version,
         status, server_ip, connection_id, has_security_details, san_list,
         issuer, cert_serial] = e;
  pageref = v["pageref"].as_string();
  request_id = v["_request_id"].as_string();
  started = v["startedDateTime"].as_int();
  time_ms = v["time"].as_double();
  method = v["request"]["method"].as_string();
  url = v["request"]["url"].as_string();
  http_version = v["request"]["httpVersion"].as_string();
  status = static_cast<int>(v["response"]["status"].as_int());
  server_ip = v["serverIPAddress"].as_string();
  if (v["connection"].is_string()) {
    connection_id =
        std::strtoll(v["connection"].as_string().c_str(), nullptr, 10);
  } else if (v["connection"].is_number()) {
    connection_id = v["connection"].as_int();
  }
  const json::Value& sec = v["_securityDetails"];
  if (sec.is_object()) {
    has_security_details = true;
    for (const json::Value& san : sec["sanList"].as_array()) {
      san_list.push_back(san.as_string());
    }
    issuer = sec["issuer"].as_string();
    cert_serial = static_cast<std::uint64_t>(
        std::strtoull(sec["serialNumber"].as_string().c_str(), nullptr, 10));
  }
  return e;
}

}  // namespace

json::Value to_json(const Log& log) {
  const auto& [page, extra_pages, entries] = log;
  json::Array entry_array;
  entry_array.reserve(entries.size());
  for (const Entry& e : entries) entry_array.emplace_back(entry_to_json(e));

  json::Object log_obj;
  log_obj.set("version", "1.2");
  json::Object creator;
  creator.set("name", "h2reuse");
  creator.set("version", "1.0");
  log_obj.set("creator", std::move(creator));
  json::Array pages;
  pages.emplace_back(page_to_json(page));
  for (const Page& extra : extra_pages) pages.emplace_back(page_to_json(extra));
  log_obj.set("pages", std::move(pages));
  log_obj.set("entries", std::move(entry_array));

  json::Object root;
  root.set("log", std::move(log_obj));
  return json::Value{std::move(root)};
}

util::Expected<Log> from_json(const json::Value& value) {
  const json::Value& log_value = value["log"];
  if (!log_value.is_object()) {
    return util::unexpected(util::Error{"missing log object"});
  }
  Log log;
  auto& [page, extra_pages, entries] = log;
  const json::Value& pages = log_value["pages"];
  if (pages.is_array() && !pages.as_array().empty()) {
    page = page_from_json(pages.at(0));
    for (std::size_t i = 1; i < pages.as_array().size(); ++i) {
      extra_pages.push_back(page_from_json(pages.at(i)));
    }
  }
  const json::Value& entry_values = log_value["entries"];
  if (!entry_values.is_array()) {
    return util::unexpected(util::Error{"missing entries array"});
  }
  entries.reserve(entry_values.as_array().size());
  for (const json::Value& v : entry_values.as_array()) {
    entries.push_back(entry_from_json(v));
  }
  return log;
}

std::string to_string(const Log& log, bool pretty) {
  json::WriteOptions opts;
  opts.pretty = pretty;
  return json::write(to_json(log), opts);
}

util::Expected<Log> parse(std::string_view text) {
  auto value = json::parse(text);
  if (!value) return util::unexpected(value.error());
  return from_json(value.value());
}

}  // namespace h2r::har

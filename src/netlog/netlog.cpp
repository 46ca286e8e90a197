#include "netlog/netlog.hpp"

#include <charconv>
#include <stdexcept>
#include <type_traits>
#include <utility>

#include "util/strings.hpp"

namespace h2r::netlog {

namespace {

constexpr bool rows_in_enum_order() {
  for (std::size_t i = 0; i < kEventTypes.size(); ++i) {
    if (static_cast<std::size_t>(kEventTypes[i].type) != i) return false;
  }
  return true;
}
static_assert(rows_in_enum_order(), "kEventTypes must follow EventType");

}  // namespace

std::string_view to_string(EventType type) noexcept {
  const auto index = static_cast<std::size_t>(type);
  return index < kEventTypes.size() ? kEventTypes[index].name : "UNKNOWN";
}

namespace {

// ------------------------------------------------------------ the params
//
// One description per payload shape of the params a dump carries, in
// key-sorted order. `io` is a Writer (to_json, over a const payload) or a
// Reader (from_json), so the key names, their order, and which keys are
// optional are written once for both directions.

template <class Io, class P>
void describe(Io& io, EventType type, P& p) {
  using Shape = std::remove_const_t<P>;
  if constexpr (std::is_same_v<Shape, DnsResolved>) {
    io.field("addresses", p.addresses);
    io.marker("fault", "1", p.fault);
    io.choice("from_cache", "1", "0", p.from_cache);
    io.field("host", p.host);
  } else if constexpr (std::is_same_v<Shape, SessionCreated>) {
    io.certificate(p.certificate);  // cert_issuer, cert_sans, cert_serial
    io.field("domain", p.domain);
    io.field("ip", p.endpoint.address);
    io.field("operator", p.operator_name);
    io.field("port", p.endpoint.port);
    io.choice("privacy", "1", "0", p.privacy);
    io.choice("protocol", "h3", "h2", p.h3);
    io.field("served", p.served);
  } else if constexpr (std::is_same_v<Shape, HostOnly>) {
    io.field(type == EventType::kMisdirected ? "domain" : "host", p.host);
    if (type == EventType::kSessionAliasReused) {
      io.marker("via", "origin", p.via_origin);
    }
  } else if constexpr (std::is_same_v<Shape, Goaway>) {
    io.field("cause", p.cause);
  } else if constexpr (std::is_same_v<Shape, OriginFrame>) {
    io.field("origins", p.origins);
  } else if constexpr (std::is_same_v<Shape, RequestStarted>) {
    io.field("domain", p.domain);
    io.constant("method", "GET");
    io.field("stream", p.stream);
  } else if constexpr (std::is_same_v<Shape, RequestFinished>) {
    io.field("status", p.status);
    io.field("stream", p.stream);
  } else if constexpr (std::is_same_v<Shape, ConnectFailed>) {
    io.field("cause", p.cause);
    io.field("host", p.host);
    io.field("ip", p.ip);
  } else if constexpr (std::is_same_v<Shape, StreamReset>) {
    io.field("cause", p.cause);
    io.field("stream", p.stream);
  } else if constexpr (std::is_same_v<Shape, FetchRetry>) {
    io.field("attempt", p.attempt);
    io.field("backoff_ms", p.backoff_ms);
    io.field("host", p.host);
  } else if constexpr (std::is_same_v<Shape, DeadlineExceeded>) {
    io.field("budget_ms", p.budget_ms);
    io.field("pending", p.pending);
  } else {
    static_assert(std::is_same_v<Shape, std::monostate>,
                  "every payload shape needs a description");
  }
}

// A param value's text: strings verbatim, decimal integers, dotted-quad
// or RFC 5952 addresses, comma-joined lists. Flags are choices (below).

template <class T>
concept Integer = std::is_integral_v<T> && !std::is_same_v<T, bool>;

std::string render(const std::string& value) { return value; }
std::string render(const net::IpAddress& value) { return value.to_string(); }
template <Integer T>
std::string render(T value) {
  return std::to_string(value);
}
/// An empty item adds no separator while the output is still empty.
template <class T>
std::string render(const std::vector<T>& items) {
  std::string out;
  for (const T& item : items) {
    if (!out.empty()) out.push_back(',');
    out += render(item);
  }
  return out;
}

bool parse(std::string_view text, std::string& out) {
  out = text;
  return true;
}
bool parse(std::string_view text, net::IpAddress& out) {
  auto parsed = net::IpAddress::parse(text);
  if (parsed.has_value()) out = parsed.value();
  return parsed.has_value();
}
template <Integer T>
bool parse(std::string_view text, T& out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, out);
  return !text.empty() && ec == std::errc{} && ptr == end;
}
template <class T>
bool parse(std::string_view text, std::vector<T>& out) {
  if (text.empty()) return true;
  for (std::string_view item : util::split(text, ',')) {
    if (!parse(item, out.emplace_back())) return false;
  }
  return true;
}

/// Renders a payload's params as strings.
class Writer {
 public:
  template <class T>
  void field(std::string_view key, const T& value) {
    set(key, render(value));
  }
  /// Absent when unset.
  template <class T>
  void field(std::string_view key, const std::optional<T>& value) {
    if (value.has_value()) field(key, *value);
  }
  void choice(std::string_view key, std::string_view yes, std::string_view no,
              bool value) {
    set(key, std::string(value ? yes : no));
  }
  /// A key present only when `value` is set, always carrying `text`.
  void marker(std::string_view key, std::string_view text, bool value) {
    if (value) set(key, std::string(text));
  }
  void constant(std::string_view key, std::string_view text) {
    set(key, std::string(text));
  }
  void certificate(const tls::CertificatePtr& cert) {
    set("cert_issuer", cert ? cert->issuer_organization() : std::string());
    set("cert_sans", cert ? render(cert->san_dns_names()) : std::string());
    set("cert_serial", render(cert ? cert->serial() : 0));
  }

  json::Object params;

 private:
  void set(std::string_view key, std::string value) {
    params.set(std::string(key), std::move(value));
  }
};

/// Parses a payload's params back; keeps the first error.
class Reader {
 public:
  explicit Reader(const json::Object& params) : params_(params) {}

  template <class T>
  void field(std::string_view key, T& out) {
    if (const std::string* value = take(key, true)) {
      if (!parse(*value, out)) fail(key, "cannot parse \"" + *value + "\"");
    }
  }
  /// May be absent.
  template <class T>
  void field(std::string_view key, std::optional<T>& out) {
    if (const std::string* value = take(key, false)) {
      if (!parse(*value, out.emplace())) {
        fail(key, "cannot parse \"" + *value + "\"");
      }
    }
  }
  void choice(std::string_view key, std::string_view yes, std::string_view no,
              bool& out) {
    const std::string* value = take(key, true);
    if (value == nullptr) return;
    if (*value == yes || *value == no) {
      out = *value == yes;
    } else {
      fail(key, "expected \"" + std::string(yes) + "\" or \"" +
                    std::string(no) + "\", got \"" + *value + "\"");
    }
  }
  void marker(std::string_view key, std::string_view text, bool& out) {
    const std::string* value = take(key, false);
    if (value == nullptr) return;
    if (*value == text) {
      out = true;
    } else {
      fail(key, "expected \"" + std::string(text) + "\", got \"" + *value +
                    "\"");
    }
  }
  void constant(std::string_view key, std::string_view text) {
    bool present = false;
    marker(key, text, present);
    if (!present && error_.empty()) fail(key, "missing");
  }
  void certificate(tls::CertificatePtr& out) {
    tls::Certificate::Spec spec;
    field("cert_issuer", spec.issuer_organization);
    field("cert_sans", spec.san_dns_names);
    field("cert_serial", spec.serial);
    out = tls::Certificate::make(std::move(spec));
  }

  /// Call after describe(): a key the shape does not read is an error.
  void reject_unread_keys() {
    if (!error_.empty() || taken_keys_.size() == params_.size()) return;
    for (const auto& [key, value] : params_) {
      (void)value;
      if (!was_taken(key)) {
        fail(key, "not a param of this event type");
        return;
      }
    }
  }

  const std::string& error() const noexcept { return error_; }

 private:
  /// The string value of `key`; null (after recording an error unless
  /// the key is optional and absent) when there is none.
  const std::string* take(std::string_view key, bool required) {
    if (!error_.empty()) return nullptr;
    const json::Value* value = params_.find(key);
    if (value == nullptr) {
      if (required) fail(key, "missing");
      return nullptr;
    }
    if (!value->is_string()) {
      fail(key, "expected a string");
      return nullptr;
    }
    taken_keys_.push_back(key);
    return &value->as_string();
  }
  bool was_taken(std::string_view key) const noexcept {
    for (std::string_view taken : taken_keys_) {
      if (taken == key) return true;
    }
    return false;
  }
  void fail(std::string_view key, const std::string& why) {
    if (error_.empty()) error_ = "params." + std::string(key) + ": " + why;
  }

  const json::Object& params_;
  std::vector<std::string_view> taken_keys_;
  std::string error_;
};

/// The Payload alternative for `index`, default-constructed.
template <std::size_t... I>
Payload empty_payload(std::size_t index, std::index_sequence<I...>) {
  Payload out;
  (void)((I == index ? (out.emplace<I>(), true) : false) || ...);
  return out;
}

const EventTypeInfo* find_type(std::string_view name) noexcept {
  for (const EventTypeInfo& row : kEventTypes) {
    if (row.name == name) return &row;
  }
  return nullptr;
}

}  // namespace

void NetLog::record(EventType type, util::SimTime time,
                    std::uint64_t source_id, Payload payload) {
  const auto index = static_cast<std::size_t>(type);
  if (index >= kEventTypes.size() ||
      kEventTypes[index].shape != payload.index()) {
    throw std::invalid_argument("netlog: payload does not match " +
                                std::string(to_string(type)));
  }
  events_.push_back(Event{type, time, source_id, std::move(payload)});
}

std::vector<const Event*> NetLog::for_source(std::uint64_t source_id) const {
  std::vector<const Event*> out;
  for (const Event& e : events_) {
    if (e.source_id == source_id) out.push_back(&e);
  }
  return out;
}

json::Value NetLog::to_json() const {
  json::Array events;
  events.reserve(events_.size());
  for (const Event& e : events_) {
    json::Object obj;
    obj.set("type", std::string(to_string(e.type)));
    obj.set("time", static_cast<std::int64_t>(e.time));
    obj.set("source", static_cast<std::int64_t>(e.source_id));
    Writer writer;
    std::visit([&](const auto& payload) { describe(writer, e.type, payload); },
               e.payload);
    obj.set("params", std::move(writer.params));
    events.emplace_back(std::move(obj));
  }
  json::Object root;
  root.set("events", std::move(events));
  return json::Value{std::move(root)};
}

util::Expected<NetLog> NetLog::from_json(const json::Value& value) {
  const json::Value& events = value["events"];
  if (!events.is_array()) {
    return util::unexpected(util::Error{"missing events array"});
  }
  NetLog log;
  const json::Array& items = events.as_array();
  log.events_.reserve(items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    const json::Value& item = items[i];
    auto reject = [&](const std::string& why) {
      std::string where = "events[" + std::to_string(i) + "]";
      if (item["type"].is_string()) {
        where += " (" + item["type"].as_string() + ")";
      }
      return util::unexpected(util::Error{where + " " + why});
    };
    if (!item.is_object()) return reject("is not an object");
    for (const auto& [key, field] : item.as_object()) {
      (void)field;
      if (key != "type" && key != "time" && key != "source" &&
          key != "params") {
        return reject(key + ": not an event key");
      }
    }
    if (!item["type"].is_string()) return reject("type: expected a string");
    const EventTypeInfo* row = find_type(item["type"].as_string());
    if (row == nullptr) return reject("type: unknown event type");
    if (!item["time"].is_int()) return reject("time: expected an integer");
    if (!item["source"].is_int() || item["source"].as_int() < 0) {
      return reject("source: expected a non-negative integer");
    }
    if (!item["params"].is_object()) {
      return reject("params: expected an object");
    }

    Event e;
    e.type = row->type;
    e.time = item["time"].as_int();
    e.source_id = static_cast<std::uint64_t>(item["source"].as_int());
    e.payload = empty_payload(
        row->shape, std::make_index_sequence<std::variant_size_v<Payload>>{});
    Reader reader(item["params"].as_object());
    std::visit([&](auto& payload) { describe(reader, e.type, payload); },
               e.payload);
    reader.reject_unread_keys();
    if (!reader.error().empty()) return reject(reader.error());
    log.events_.push_back(std::move(e));
  }
  return log;
}

}  // namespace h2r::netlog

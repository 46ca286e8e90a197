// A Chromium-NetLog-like event stream.
//
// The browser emits one flat, time-ordered list of typed events with a
// source id (the HTTP/2 session). The paper's own-measurement pipeline
// "stitches these events together to gather a precise view of the session
// lifecycle" — stitch.hpp does exactly that, reconstructing
// core::ConnectionRecords from nothing but the event stream.
//
// Each event carries its parameters in natural types (addresses, lists,
// integers, the shared certificate), so the stitcher reads fields instead
// of parsing text. to_json renders the NetLog dump's string params on
// demand and from_json parses them back, strictly.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <variant>
#include <vector>

#include "json/json.hpp"
#include "net/ip.hpp"
#include "tls/certificate.hpp"
#include "util/clock.hpp"
#include "util/expected.hpp"

namespace h2r::netlog {

enum class EventType : std::uint8_t {
  kDnsResolved,        // DnsResolved
  kSessionCreated,     // SessionCreated
  kSessionAvailable,   // no payload: TLS handshake done
  kSessionClosed,      // no payload: end of socket
  kSessionGoaway,      // Goaway
  kSessionAliasReused, // HostOnly: IP-pooling hit, request coalesced
  kOriginFrame,        // OriginFrame: RFC 8336 origin set received
  kRequestStarted,     // RequestStarted: stream opened
  kRequestFinished,    // RequestFinished: response complete
  kMisdirected,        // HostOnly: HTTP 421 for a domain on this session
  kPreconnect,         // HostOnly: speculative connection (no request)
  // Fault-layer events.
  kConnectFailed,      // ConnectFailed: injected connect/TLS/DNS failure
  kStreamReset,        // StreamReset: server RST_STREAM
  kFetchRetry,         // FetchRetry: browser retry after an injected fault
  kDeadlineExceeded,   // DeadlineExceeded: per-site watchdog fired
};

// ------------------------------------------------------------- payloads
//
// Every member has an initializer, so a designated initializer may name
// only the fields an event sets.

struct DnsResolved {
  std::string host{};
  std::vector<net::IpAddress> addresses{};
  bool from_cache = false;
  /// The fault layer failed this resolution.
  bool fault = false;
};

struct SessionCreated {
  net::Endpoint endpoint{};
  std::string domain{};
  bool h3 = false;
  bool privacy = false;
  /// The certificate the server presented (shared, never copied); null
  /// means none, which stitches as has_certificate = false.
  tls::CertificatePtr certificate{};
  std::string operator_name{};
  /// Every domain the contacted server serves.
  std::vector<std::string> served{};
};

/// Alias reuse, preconnect and misdirected name one host.
struct HostOnly {
  std::string host{};
  /// Alias reuse only: the ORIGIN frame, not DNS, allowed the coalescing.
  bool via_origin = false;
};

struct Goaway {
  std::optional<std::string> cause{};
};

struct OriginFrame {
  /// Host names of the announced origins.
  std::vector<std::string> origins{};
};

struct RequestStarted {
  std::string domain{};
  std::uint64_t stream = 0;
};

struct RequestFinished {
  std::uint64_t stream = 0;
  int status = 0;
};

struct ConnectFailed {
  std::string host{};
  /// The address that refused; absent when DNS failed.
  std::optional<net::IpAddress> ip{};
  std::string cause{};  // "dns", "connect" or "tls"
};

struct StreamReset {
  std::uint64_t stream = 0;
  std::string cause{};  // "injected" or "goaway"
};

struct FetchRetry {
  std::string host{};
  int attempt = 0;
  util::SimTime backoff_ms = 0;
};

struct DeadlineExceeded {
  util::SimTime budget_ms = 0;
  std::uint64_t pending = 0;
};

/// One alternative per event shape; std::monostate for the payload-less
/// kSessionAvailable and kSessionClosed.
using Payload =
    std::variant<std::monostate, DnsResolved, SessionCreated, HostOnly,
                 Goaway, OriginFrame, RequestStarted, RequestFinished,
                 ConnectFailed, StreamReset, FetchRetry, DeadlineExceeded>;

/// Index of `T` among Payload's alternatives.
template <class T, class... Shapes>
constexpr std::size_t shape_index(const std::variant<Shapes...>*) noexcept {
  constexpr bool match[] = {std::is_same_v<T, Shapes>...};
  std::size_t i = 0;
  while (i < sizeof...(Shapes) && !match[i]) ++i;
  return i;
}
template <class T>
inline constexpr std::size_t kShape =
    shape_index<T>(static_cast<const Payload*>(nullptr));

/// Every event type with its dump name and payload shape, in enum order.
/// to_string, NetLog::record's shape check and from_json all read this
/// table, so a new type needs one row here.
struct EventTypeInfo {
  EventType type;
  std::string_view name;
  std::size_t shape;  // index into Payload
};
inline constexpr std::array<EventTypeInfo, 15> kEventTypes{{
    {EventType::kDnsResolved, "DNS_RESOLVED", kShape<DnsResolved>},
    {EventType::kSessionCreated, "HTTP2_SESSION_CREATED",
     kShape<SessionCreated>},
    {EventType::kSessionAvailable, "HTTP2_SESSION_AVAILABLE",
     kShape<std::monostate>},
    {EventType::kSessionClosed, "HTTP2_SESSION_CLOSED",
     kShape<std::monostate>},
    {EventType::kSessionGoaway, "HTTP2_SESSION_GOAWAY", kShape<Goaway>},
    {EventType::kSessionAliasReused, "HTTP2_SESSION_POOL_ALIAS",
     kShape<HostOnly>},
    {EventType::kOriginFrame, "HTTP2_SESSION_ORIGIN_FRAME",
     kShape<OriginFrame>},
    {EventType::kRequestStarted, "HTTP2_STREAM_STARTED",
     kShape<RequestStarted>},
    {EventType::kRequestFinished, "HTTP2_STREAM_FINISHED",
     kShape<RequestFinished>},
    {EventType::kMisdirected, "HTTP2_SESSION_MISDIRECTED", kShape<HostOnly>},
    {EventType::kPreconnect, "HTTP2_SESSION_PRECONNECT", kShape<HostOnly>},
    {EventType::kConnectFailed, "SOCKET_CONNECT_FAILED",
     kShape<ConnectFailed>},
    {EventType::kStreamReset, "HTTP2_STREAM_RESET", kShape<StreamReset>},
    {EventType::kFetchRetry, "URL_REQUEST_RETRY", kShape<FetchRetry>},
    {EventType::kDeadlineExceeded, "PAGE_LOAD_DEADLINE_EXCEEDED",
     kShape<DeadlineExceeded>},
}};

std::string_view to_string(EventType type) noexcept;

struct Event {
  EventType type = EventType::kSessionCreated;
  util::SimTime time = 0;
  /// Session id the event belongs to (0 = no session, e.g. DNS).
  std::uint64_t source_id = 0;
  /// Always the alternative kEventTypes names for `type` (NetLog::record
  /// checks).
  Payload payload;
};

class NetLog {
 public:
  /// Appends an event. Throws std::invalid_argument when `payload` is not
  /// the shape `type` carries.
  void record(EventType type, util::SimTime time, std::uint64_t source_id,
              Payload payload = {});

  const std::vector<Event>& events() const noexcept { return events_; }
  std::size_t size() const noexcept { return events_.size(); }
  void clear() noexcept { events_.clear(); }
  /// Pre-size the event buffer (the browser reserves per page load).
  void reserve(std::size_t n) { events_.reserve(n); }

  /// Events of one session, in order.
  std::vector<const Event*> for_source(std::uint64_t source_id) const;

  /// NetLog-style JSON dump ({"events": [...]}), each event's params as
  /// key-sorted strings: flags "1"/"0", decimal integers, comma-joined
  /// lists.
  json::Value to_json() const;

  /// Parses a dump produced by to_json(). An unknown event type, a
  /// missing, ill-typed or unparseable key, or a key the type does not
  /// carry is an error naming the event index and the key.
  static util::Expected<NetLog> from_json(const json::Value& value);

 private:
  std::vector<Event> events_;
};

}  // namespace h2r::netlog

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "json/json.hpp"
#include "netlog/netlog.hpp"
#include "netlog/stitch.hpp"

namespace h2r::netlog {
namespace {

net::Endpoint endpoint(const char* ip) {
  return net::Endpoint{net::IpAddress::parse(ip).value(), 443};
}

tls::CertificatePtr cert(std::vector<std::string> sans,
                         std::string issuer = "", std::uint64_t serial = 0) {
  tls::Certificate::Spec spec;
  spec.san_dns_names = std::move(sans);
  spec.issuer_organization = std::move(issuer);
  spec.serial = serial;
  return tls::Certificate::make(std::move(spec));
}

SessionCreated session(const char* ip, const char* domain,
                       tls::CertificatePtr certificate) {
  return SessionCreated{.endpoint = endpoint(ip),
                        .domain = domain,
                        .certificate = std::move(certificate)};
}

TEST(NetLog, RecordsEventsInOrder) {
  NetLog log;
  log.record(EventType::kSessionCreated, 10, 1,
             SessionCreated{.domain = "a"});
  log.record(EventType::kRequestStarted, 20, 1, RequestStarted{.stream = 1});
  log.record(EventType::kSessionCreated, 30, 2, SessionCreated{});
  ASSERT_EQ(log.size(), 3u);
  EXPECT_EQ(log.events()[0].type, EventType::kSessionCreated);
  EXPECT_EQ(log.events()[1].time, 20);
  EXPECT_EQ(log.for_source(1).size(), 2u);
  EXPECT_EQ(log.for_source(2).size(), 1u);
  EXPECT_EQ(log.for_source(9).size(), 0u);
}

TEST(NetLog, RecordRejectsAPayloadOfAnotherShape) {
  NetLog log;
  EXPECT_THROW(log.record(EventType::kDnsResolved, 1, 0,
                          HostOnly{.host = "a.example"}),
               std::invalid_argument);
  EXPECT_THROW(log.record(EventType::kSessionClosed, 1, 1,
                          Goaway{.cause = "injected"}),
               std::invalid_argument);
  EXPECT_EQ(log.size(), 0u);
}

TEST(NetLog, JsonDump) {
  NetLog log;
  log.record(EventType::kDnsResolved, 5, 0, DnsResolved{.host = "x.example"});
  const json::Value dump = log.to_json();
  const json::Value& events = dump["events"];
  ASSERT_EQ(events.as_array().size(), 1u);
  EXPECT_EQ(events.at(0)["type"].as_string(), "DNS_RESOLVED");
  EXPECT_EQ(events.at(0)["params"]["host"].as_string(), "x.example");
}

TEST(NetLog, EventTypeNames) {
  EXPECT_EQ(to_string(EventType::kSessionCreated), "HTTP2_SESSION_CREATED");
  EXPECT_EQ(to_string(EventType::kMisdirected), "HTTP2_SESSION_MISDIRECTED");
}

// ------------------------------------------------------------- stitching

NetLog session_log() {
  NetLog log;
  log.record(EventType::kSessionCreated, 100, 7,
             session("10.0.0.5", "WWW.Example.COM",
                     cert({"*.example.com", "example.com"}, "Test CA", 42)));
  log.record(EventType::kSessionAvailable, 160, 7);
  log.record(EventType::kRequestStarted, 160, 7,
             RequestStarted{.domain = "www.example.com", .stream = 1});
  log.record(EventType::kRequestFinished, 220, 7,
             RequestFinished{.stream = 1, .status = 200});
  log.record(EventType::kRequestStarted, 230, 7,
             RequestStarted{.domain = "img.example.com", .stream = 3});
  log.record(EventType::kRequestFinished, 300, 7,
             RequestFinished{.stream = 3, .status = 421});
  log.record(EventType::kMisdirected, 300, 7,
             HostOnly{.host = "img.example.com"});
  log.record(EventType::kSessionClosed, 5000, 7);
  return log;
}

TEST(Stitch, ReconstructsConnectionRecord) {
  const core::SiteObservation site =
      stitch_site("https://www.example.com", session_log());
  EXPECT_EQ(site.site_url, "https://www.example.com");
  ASSERT_EQ(site.connections.size(), 1u);
  const core::ConnectionRecord& rec = site.connections[0];
  EXPECT_EQ(rec.id, 7u);
  EXPECT_EQ(rec.endpoint.address.to_string(), "10.0.0.5");
  EXPECT_EQ(rec.endpoint.port, 443);
  EXPECT_EQ(rec.initial_domain, "www.example.com");  // lowercased
  EXPECT_EQ(rec.opened_at, 100);
  ASSERT_TRUE(rec.closed_at.has_value());
  EXPECT_EQ(*rec.closed_at, 5000);
  EXPECT_EQ(rec.san_dns_names,
            (std::vector<std::string>{"*.example.com", "example.com"}));
  EXPECT_EQ(rec.issuer_organization, "Test CA");
  EXPECT_EQ(rec.certificate_serial, 42u);
  EXPECT_TRUE(rec.has_certificate);
}

TEST(Stitch, ReconstructsRequests) {
  const auto site = stitch_site("https://x", session_log());
  const core::ConnectionRecord& rec = site.connections[0];
  ASSERT_EQ(rec.requests.size(), 2u);
  EXPECT_EQ(rec.requests[0].domain, "www.example.com");
  EXPECT_EQ(rec.requests[0].method, "GET");
  EXPECT_EQ(rec.requests[0].started_at, 160);
  EXPECT_EQ(rec.requests[0].finished_at, 220);
  EXPECT_EQ(rec.requests[0].status, 200);
  EXPECT_EQ(rec.requests[1].status, 421);
}

TEST(Stitch, MisdirectedBecomesExclusion) {
  const auto site = stitch_site("https://x", session_log());
  EXPECT_TRUE(site.connections[0].excludes("img.example.com"));
  EXPECT_FALSE(site.connections[0].excludes("www.example.com"));
}

TEST(Stitch, ConnectionsSortedByOpenTime) {
  NetLog log;
  log.record(EventType::kSessionCreated, 500, 2,
             session("10.0.0.2", "b.example", cert({"b.example"})));
  log.record(EventType::kSessionCreated, 100, 9,
             session("10.0.0.9", "a.example", cert({"a.example"})));
  const auto site = stitch_site("https://x", log);
  ASSERT_EQ(site.connections.size(), 2u);
  EXPECT_EQ(site.connections[0].initial_domain, "a.example");
  EXPECT_EQ(site.connections[1].initial_domain, "b.example");
}

TEST(Stitch, OriginFrameAttachesOriginSet) {
  NetLog log;
  log.record(EventType::kSessionCreated, 0, 1,
             session("10.0.0.1", "a.example", cert({"*.example"})));
  log.record(EventType::kOriginFrame, 10, 1,
             OriginFrame{.origins = {"a.example", "b.example"}});
  const auto site = stitch_site("https://x", log);
  ASSERT_TRUE(site.connections[0].origin_set.has_value());
  EXPECT_EQ(*site.connections[0].origin_set,
            (std::vector<std::string>{"a.example", "b.example"}));
  EXPECT_FALSE(site.connections[0].excludes("b.example"));
  EXPECT_TRUE(site.connections[0].excludes("c.example"));
}

TEST(Stitch, DropsEmptyListItemsAndCarriesSessionFields) {
  NetLog log;
  SessionCreated created =
      session("10.0.0.1", "A.Example", cert({"", "a.example", ""}, "CA", 9));
  created.h3 = true;
  created.privacy = true;
  created.operator_name = "op";
  created.served = {"", "a.example", "b.example", ""};
  log.record(EventType::kSessionCreated, 0, 1, std::move(created));
  log.record(EventType::kOriginFrame, 10, 1,
             OriginFrame{.origins = {"", "a.example", ""}});
  log.record(EventType::kMisdirected, 20, 1, HostOnly{.host = "C.Example"});
  const auto site = stitch_site("https://x", log);
  ASSERT_EQ(site.connections.size(), 1u);
  const core::ConnectionRecord& rec = site.connections[0];
  EXPECT_EQ(rec.initial_domain, "a.example");
  EXPECT_EQ(rec.san_dns_names, (std::vector<std::string>{"a.example"}));
  EXPECT_EQ(rec.served_domains,
            (std::vector<std::string>{"a.example", "b.example"}));
  EXPECT_EQ(*rec.origin_set, (std::vector<std::string>{"a.example"}));
  EXPECT_EQ(rec.excluded_domains, (std::vector<std::string>{"c.example"}));
  EXPECT_EQ(rec.protocol, "h3");
  EXPECT_TRUE(rec.privacy);
  EXPECT_EQ(rec.operator_name, "op");
}

TEST(Stitch, SessionWithoutCloseStaysOpen) {
  NetLog log;
  log.record(EventType::kSessionCreated, 0, 1,
             session("10.0.0.1", "a.example", cert({"a.example"})));
  const auto site = stitch_site("https://x", log);
  EXPECT_FALSE(site.connections[0].closed_at.has_value());
}

TEST(Stitch, MissingCertSansMeansNoCertificate) {
  NetLog log;
  log.record(EventType::kSessionCreated, 0, 1,
             session("10.0.0.1", "a.example", nullptr));
  log.record(EventType::kSessionCreated, 0, 2,
             session("10.0.0.2", "b.example", cert({""}, "CA")));
  const auto site = stitch_site("https://x", log);
  ASSERT_EQ(site.connections.size(), 2u);
  EXPECT_FALSE(site.connections[0].has_certificate);
  EXPECT_FALSE(site.connections[1].has_certificate);
}

TEST(Stitch, OrphanEventsAreIgnored) {
  NetLog log;
  // Events for a session that was never created.
  log.record(EventType::kRequestStarted, 10, 5, RequestStarted{.stream = 1});
  log.record(EventType::kRequestFinished, 20, 5,
             RequestFinished{.stream = 1});
  log.record(EventType::kSessionClosed, 30, 5);
  const auto site = stitch_site("https://x", log);
  EXPECT_TRUE(site.connections.empty());
}

TEST(Stitch, PreconnectSessionHasNoRequests) {
  NetLog log;
  log.record(EventType::kSessionCreated, 0, 1,
             session("10.0.0.1", "fonts.example", cert({"*.example"})));
  log.record(EventType::kPreconnect, 0, 1, HostOnly{.host = "fonts.example"});
  const auto site = stitch_site("https://x", log);
  ASSERT_EQ(site.connections.size(), 1u);
  EXPECT_TRUE(site.connections[0].requests.empty());
}

// ------------------------------------------------------- dump round trip

/// One event of every type, with non-default values in every field.
NetLog every_type_log() {
  NetLog log;
  log.record(EventType::kDnsResolved, 1, 0,
             DnsResolved{.host = "a.example",
                         .addresses = {endpoint("10.0.0.1").address,
                                       endpoint("2001:db8::1").address},
                         .from_cache = true,
                         .fault = true});
  SessionCreated created =
      session("10.0.0.1", "a.example", cert({"a.example", "*.b.example"},
                                            "CA", 18446744073709551615u));
  created.h3 = true;
  created.privacy = true;
  created.operator_name = "op";
  created.served = {"a.example", "b.example"};
  log.record(EventType::kSessionCreated, 2, 1, std::move(created));
  log.record(EventType::kSessionAvailable, 3, 1);
  log.record(EventType::kOriginFrame, 3, 1,
             OriginFrame{.origins = {"a.example", "c.example"}});
  log.record(EventType::kSessionAliasReused, 4, 1,
             HostOnly{.host = "c.example", .via_origin = true});
  log.record(EventType::kPreconnect, 4, 1, HostOnly{.host = "a.example"});
  log.record(EventType::kRequestStarted, 5, 1,
             RequestStarted{.domain = "a.example", .stream = 3});
  log.record(EventType::kRequestFinished, 6, 1,
             RequestFinished{.stream = 3, .status = 421});
  log.record(EventType::kMisdirected, 6, 1, HostOnly{.host = "a.example"});
  log.record(EventType::kStreamReset, 7, 1,
             StreamReset{.stream = 5, .cause = "injected"});
  log.record(EventType::kConnectFailed, 8, 0,
             ConnectFailed{.host = "d.example",
                           .ip = endpoint("10.0.0.4").address,
                           .cause = "tls"});
  log.record(EventType::kConnectFailed, 8, 0,
             ConnectFailed{.host = "e.example", .cause = "dns"});
  log.record(EventType::kFetchRetry, 9, 0,
             FetchRetry{.host = "d.example", .attempt = 2, .backoff_ms = 200});
  log.record(EventType::kSessionGoaway, 10, 1, Goaway{.cause = "injected"});
  log.record(EventType::kSessionGoaway, 10, 1, Goaway{});
  log.record(EventType::kSessionClosed, 10, 1);
  log.record(EventType::kDeadlineExceeded, 11, 0,
             DeadlineExceeded{.budget_ms = 400, .pending = 6});
  return log;
}

TEST(NetLogJsonStrict, EveryTypeRoundTripsThroughTheDump) {
  const NetLog log = every_type_log();
  const std::string bytes = json::write(log.to_json());
  const auto parsed = NetLog::from_json(log.to_json());
  ASSERT_TRUE(parsed.has_value()) << parsed.error().message;
  EXPECT_EQ(json::write(parsed->to_json()), bytes);
  EXPECT_EQ(stitch_site("https://x", *parsed).connections[0]
                .san_dns_names.size(),
            2u);

  const auto& created = std::get<SessionCreated>(parsed->events()[1].payload);
  EXPECT_EQ(created.endpoint, endpoint("10.0.0.1"));
  EXPECT_EQ(created.certificate->serial(), 18446744073709551615u);
  EXPECT_TRUE(created.h3);
  const auto& failed = std::get<ConnectFailed>(parsed->events()[11].payload);
  EXPECT_FALSE(failed.ip.has_value());
  EXPECT_FALSE(std::get<Goaway>(parsed->events()[14].payload).cause);
}

TEST(NetLogJsonStrict, RendersTodaysParams) {
  const std::string bytes = json::write(every_type_log().to_json());
  for (const char* expected : {
           R"("params":{"addresses":"10.0.0.1,2001:db8::1","fault":"1","from_cache":"1","host":"a.example"})",
           R"("params":{"cert_issuer":"CA","cert_sans":"a.example,*.b.example","cert_serial":"18446744073709551615","domain":"a.example","ip":"10.0.0.1","operator":"op","port":"443","privacy":"1","protocol":"h3","served":"a.example,b.example"})",
           R"("params":{"host":"c.example","via":"origin"})",
           R"("type":"HTTP2_SESSION_PRECONNECT","time":4,"source":1,"params":{"host":"a.example"})",
           R"("params":{"domain":"a.example","method":"GET","stream":"3"})",
           R"("params":{"status":"421","stream":"3"})",
           R"("type":"HTTP2_SESSION_MISDIRECTED","time":6,"source":1,"params":{"domain":"a.example"})",
           R"("params":{"cause":"tls","host":"d.example","ip":"10.0.0.4"})",
           R"("params":{"cause":"dns","host":"e.example"})",
           R"("params":{"attempt":"2","backoff_ms":"200","host":"d.example"})",
           R"("type":"HTTP2_SESSION_GOAWAY","time":10,"source":1,"params":{}})",
           R"("params":{"budget_ms":"400","pending":"6"})",
       }) {
    EXPECT_NE(bytes.find(expected), std::string::npos) << expected;
  }
}

TEST(NetLogJsonStrict, MalformedEventsNameTheEventAndTheKey) {
  // One malformed event per payload shape, each after a valid event so
  // the error must name index 1.
  struct Case {
    const char* event;
    const char* key;
  };
  const Case cases[] = {
      {R"({"type":"DNS_RESOLVED","time":1,"source":0,"params":{"addresses":"10.0.0.1,bogus","from_cache":"0","host":"a"}})",
       "addresses"},
      {R"({"type":"DNS_RESOLVED","time":1,"source":0,"params":{"addresses":"","fault":"0","from_cache":"0","host":"a"}})",
       "fault"},
      {R"({"type":"HTTP2_SESSION_CREATED","time":1,"source":1,"params":{"cert_issuer":"","cert_sans":"","cert_serial":"0","domain":"a","ip":"10.0.0.1","operator":"","port":"https","privacy":"0","protocol":"h2","served":""}})",
       "port"},
      {R"({"type":"HTTP2_SESSION_CREATED","time":1,"source":1,"params":{"cert_issuer":"","cert_serial":"0","domain":"a","ip":"10.0.0.1","operator":"","port":"443","privacy":"0","protocol":"h2","served":""}})",
       "cert_sans"},
      {R"({"type":"HTTP2_SESSION_CREATED","time":1,"source":1,"params":{"cert_issuer":"","cert_sans":"","cert_serial":"0","domain":"a","ip":"10.0.0.1","operator":"","port":"443","privacy":"yes","protocol":"h2","served":""}})",
       "privacy"},
      {R"({"type":"HTTP2_SESSION_POOL_ALIAS","time":1,"source":1,"params":{"host":"a","via":"dns"}})",
       "via"},
      {R"({"type":"HTTP2_SESSION_MISDIRECTED","time":1,"source":1,"params":{"host":"a"}})",
       "domain"},
      {R"({"type":"HTTP2_SESSION_GOAWAY","time":1,"source":1,"params":{"cause":7}})",
       "cause"},
      {R"({"type":"HTTP2_SESSION_ORIGIN_FRAME","time":1,"source":1,"params":{}})",
       "origins"},
      {R"({"type":"HTTP2_STREAM_STARTED","time":1,"source":1,"params":{"domain":"a","method":"GET","stream":"x"}})",
       "stream"},
      {R"({"type":"HTTP2_STREAM_STARTED","time":1,"source":1,"params":{"domain":"a","method":"POST","stream":"1"}})",
       "method"},
      {R"({"type":"HTTP2_STREAM_FINISHED","time":1,"source":1,"params":{"status":"","stream":"1"}})",
       "status"},
      {R"({"type":"SOCKET_CONNECT_FAILED","time":1,"source":0,"params":{"cause":"connect","host":"a","ip":"999.1.1.1"}})",
       "ip"},
      {R"({"type":"HTTP2_STREAM_RESET","time":1,"source":1,"params":{"cause":"injected","stream":"-1"}})",
       "stream"},
      {R"({"type":"URL_REQUEST_RETRY","time":1,"source":0,"params":{"attempt":"1.5","backoff_ms":"100","host":"a"}})",
       "attempt"},
      {R"({"type":"PAGE_LOAD_DEADLINE_EXCEEDED","time":1,"source":0,"params":{"budget_ms":"400","pending":"99999999999999999999999"}})",
       "pending"},
      {R"({"type":"HTTP2_SESSION_AVAILABLE","time":1,"source":1,"params":{"host":"a"}})",
       "host"},
      {R"({"type":"HTTP2_SESSION_CLOSED","source":1,"params":{}})", "time"},
      {R"({"type":"HTTP2_SESSION_CLOSED","time":1,"source":-1,"params":{}})",
       "source"},
      {R"({"type":"HTTP2_SESSION_CLOSED","time":1.5,"source":1,"params":{}})",
       "time"},
      {R"({"type":"HTTP2_SESSION_CLOSED","time":1,"source":1})", "params"},
      {R"({"type":"NOT_A_THING","time":1,"source":1,"params":{}})", "type"},
  };
  const std::string valid =
      R"({"type":"HTTP2_SESSION_AVAILABLE","time":0,"source":1,"params":{}})";
  for (const Case& c : cases) {
    SCOPED_TRACE(c.event);
    const auto dump = json::parse(std::string(R"({"events":[)") + valid +
                                  "," + c.event + "]}");
    ASSERT_TRUE(dump.has_value());
    const auto parsed = NetLog::from_json(dump.value());
    ASSERT_FALSE(parsed.has_value());
    const std::string& message = parsed.error().message;
    EXPECT_NE(message.find("events[1]"), std::string::npos) << message;
    EXPECT_NE(message.find(c.key), std::string::npos) << message;
  }
}

TEST(NetLogJsonStrict, OptionalKeysMayBeAbsent) {
  const auto dump = json::parse(
      R"({"events":[)"
      R"({"type":"DNS_RESOLVED","time":1,"source":0,"params":{"addresses":"","from_cache":"0","host":"a"}},)"
      R"({"type":"HTTP2_SESSION_POOL_ALIAS","time":1,"source":1,"params":{"host":"a"}},)"
      R"({"type":"HTTP2_SESSION_GOAWAY","time":1,"source":1,"params":{}},)"
      R"({"type":"SOCKET_CONNECT_FAILED","time":1,"source":0,"params":{"cause":"dns","host":"a"}}]})");
  ASSERT_TRUE(dump.has_value());
  const auto parsed = NetLog::from_json(dump.value());
  ASSERT_TRUE(parsed.has_value()) << parsed.error().message;
  EXPECT_FALSE(std::get<DnsResolved>(parsed->events()[0].payload).fault);
  EXPECT_FALSE(std::get<HostOnly>(parsed->events()[1].payload).via_origin);
  EXPECT_FALSE(std::get<Goaway>(parsed->events()[2].payload).cause);
  EXPECT_FALSE(std::get<ConnectFailed>(parsed->events()[3].payload).ip);
}

}  // namespace
}  // namespace h2r::netlog

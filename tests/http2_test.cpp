#include <gtest/gtest.h>

#include "http2/frame.hpp"
#include "http2/session.hpp"
#include "http2/stream.hpp"
#include "tls/certificate.hpp"

namespace h2r::http2 {

// gtest_discover_tests names each FrameHeaderRoundTrip case after this text;
// without it gtest prints the struct's raw bytes, padding included. It sits
// outside the unnamed namespace so argument-dependent lookup finds it.
static void PrintTo(const FrameHeader& h, std::ostream* os) {
  *os << to_string(h.type) << " length=" << h.length
      << " flags=" << static_cast<unsigned>(h.flags)
      << " stream=" << h.stream_id;
}

namespace {

// ---------------------------------------------------------------- frames

class FrameHeaderRoundTrip : public ::testing::TestWithParam<FrameHeader> {};

TEST_P(FrameHeaderRoundTrip, EncodeDecode) {
  const FrameHeader header = GetParam();
  std::vector<std::uint8_t> wire;
  header.encode(wire);
  ASSERT_EQ(wire.size(), FrameHeader::kWireSize);
  const auto decoded = FrameHeader::decode(wire);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, header);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, FrameHeaderRoundTrip,
    ::testing::Values(
        FrameHeader{0, FrameType::kSettings, 0, 0},
        FrameHeader{16384, FrameType::kData, kFlagEndStream, 1},
        FrameHeader{255, FrameType::kHeaders,
                    static_cast<std::uint8_t>(kFlagEndHeaders | kFlagEndStream),
                    12345},
        FrameHeader{0xFFFFFF, FrameType::kGoaway, 0, 0x7FFFFFFF},
        FrameHeader{9, FrameType::kOrigin, 0, 0}));

TEST(FrameHeader, DecodeRejectsShortInput) {
  const std::vector<std::uint8_t> wire(8, 0);
  EXPECT_FALSE(FrameHeader::decode(wire).has_value());
}

TEST(FrameHeader, ReservedBitIsMaskedOnDecode) {
  FrameHeader h{1, FrameType::kData, 0, 0x7FFFFFFF};
  std::vector<std::uint8_t> wire;
  h.encode(wire);
  wire[5] |= 0x80;  // set the reserved bit
  const auto decoded = FrameHeader::decode(wire);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->stream_id, 0x7FFFFFFFu);
}

TEST(OriginFrame, RoundTrip) {
  OriginFrame frame;
  frame.origins = {"https://example.com", "https://cdn.example.com",
                   "https://example.com:8443"};
  const auto wire = frame.encode();
  const auto decoded = OriginFrame::decode(wire);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, frame);
}

TEST(OriginFrame, EmptyPayload) {
  const auto decoded = OriginFrame::decode(std::vector<std::uint8_t>{});
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(decoded->origins.empty());
}

TEST(OriginFrame, TruncatedPayloadRejected) {
  OriginFrame frame;
  frame.origins = {"https://example.com"};
  auto wire = frame.encode();
  wire.pop_back();
  EXPECT_FALSE(OriginFrame::decode(wire).has_value());
  // Truncated length prefix.
  EXPECT_FALSE(
      OriginFrame::decode(std::vector<std::uint8_t>{0x00}).has_value());
}

TEST(SettingsFrame, RoundTripAndApply) {
  SettingsFrame frame;
  frame.entries = {
      {static_cast<std::uint16_t>(SettingId::kMaxConcurrentStreams), 250},
      {static_cast<std::uint16_t>(SettingId::kInitialWindowSize), 1048576},
      {static_cast<std::uint16_t>(SettingId::kEnablePush), 0},
      {0x99, 42},  // unknown identifier: carried, ignored on apply
  };
  const auto wire = frame.encode();
  EXPECT_EQ(wire.size(), 4u * 6u);
  const auto decoded = SettingsFrame::decode(wire);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, frame);

  Settings settings;
  decoded->apply_to(settings);
  EXPECT_EQ(settings.max_concurrent_streams, 250u);
  EXPECT_EQ(settings.initial_window_size, 1048576u);
  EXPECT_FALSE(settings.enable_push);
  EXPECT_EQ(settings.max_frame_size, 16384u);  // untouched
}

TEST(SettingsFrame, RejectsNonMultipleOfSix) {
  EXPECT_FALSE(
      SettingsFrame::decode(std::vector<std::uint8_t>(7, 0)).has_value());
  EXPECT_TRUE(
      SettingsFrame::decode(std::vector<std::uint8_t>{}).has_value());
}

TEST(GoawayFrame, RoundTripWithDebugData) {
  GoawayFrame frame;
  frame.last_stream_id = 123;
  frame.error_code = static_cast<std::uint32_t>(ErrorCode::kEnhanceYourCalm);
  frame.debug_data = "too many pings";
  const auto decoded = GoawayFrame::decode(frame.encode());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, frame);
}

TEST(GoawayFrame, ReservedBitMaskedAndShortInputRejected) {
  GoawayFrame frame;
  frame.last_stream_id = 0xFFFFFFFF;  // reserved bit set
  const auto decoded = GoawayFrame::decode(frame.encode());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->last_stream_id, 0x7FFFFFFFu);
  EXPECT_FALSE(
      GoawayFrame::decode(std::vector<std::uint8_t>(7, 0)).has_value());
}

TEST(RstStreamFrame, RoundTripAndSizeCheck) {
  RstStreamFrame frame{static_cast<std::uint32_t>(ErrorCode::kCancel)};
  const auto decoded = RstStreamFrame::decode(frame.encode());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, frame);
  EXPECT_FALSE(
      RstStreamFrame::decode(std::vector<std::uint8_t>(5, 0)).has_value());
}

TEST(PingFrame, RoundTripAndSizeCheck) {
  PingFrame frame;
  for (std::size_t i = 0; i < 8; ++i) {
    frame.opaque[i] = static_cast<std::uint8_t>(i * 17);
  }
  const auto decoded = PingFrame::decode(frame.encode());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, frame);
  EXPECT_FALSE(
      PingFrame::decode(std::vector<std::uint8_t>(9, 0)).has_value());
}

TEST(FrameType, Names) {
  EXPECT_EQ(to_string(FrameType::kOrigin), "ORIGIN");
  EXPECT_EQ(to_string(FrameType::kGoaway), "GOAWAY");
  EXPECT_EQ(to_string(static_cast<FrameType>(0xEE)), "UNKNOWN");
}

// ---------------------------------------------------------------- stream

TEST(Stream, GetLifecycle) {
  Stream s{1, 100};
  EXPECT_EQ(s.state(), StreamState::kIdle);
  // GET: HEADERS+END_STREAM.
  EXPECT_TRUE(s.end_local(100));
  EXPECT_EQ(s.state(), StreamState::kHalfClosedLocal);
  EXPECT_TRUE(s.end_remote(150));
  EXPECT_EQ(s.state(), StreamState::kClosed);
  EXPECT_EQ(s.closed_at(), 150);
}

TEST(Stream, PostLikeLifecycle) {
  Stream s{3, 0};
  EXPECT_TRUE(s.send_headers());
  EXPECT_EQ(s.state(), StreamState::kOpen);
  EXPECT_TRUE(s.end_remote(10));  // server finished first
  EXPECT_EQ(s.state(), StreamState::kHalfClosedRemote);
  EXPECT_TRUE(s.end_local(20));
  EXPECT_TRUE(s.is_closed());
}

TEST(Stream, IllegalTransitionsRejected) {
  Stream s{5, 0};
  EXPECT_FALSE(s.end_remote(1));  // idle cannot half-close remote
  EXPECT_TRUE(s.send_headers());
  EXPECT_FALSE(s.send_headers());  // double HEADERS
  EXPECT_TRUE(s.end_local(2));
  EXPECT_TRUE(s.end_remote(3));
  EXPECT_FALSE(s.end_remote(4));  // already closed
  EXPECT_FALSE(s.end_local(5));
}

TEST(Stream, ResetClosesFromAnyState) {
  Stream s{7, 0};
  s.send_headers();
  s.reset(9);
  EXPECT_TRUE(s.is_closed());
  EXPECT_EQ(s.closed_at(), 9);
  s.reset(20);  // idempotent
  EXPECT_EQ(s.closed_at(), 9);
}

// --------------------------------------------------------------- session

Session make_session(bool privacy = false,
                     std::vector<std::string> sans = {"*.example.com"}) {
  Session::Params params;
  params.id = 1;
  params.peer = net::Endpoint{net::IpAddress::v4(10, 0, 0, 1), 443};
  params.initial_authority = "www.example.com";
  params.certificate = tls::Certificate::make(
      {"www.example.com", std::move(sans), "Test CA"});
  params.privacy_mode = privacy;
  params.opened_at = 1000;
  return Session{std::move(params)};
}

TEST(Session, SubmitAndCompleteRequests) {
  Session s = make_session();
  RequestEntry req;
  req.authority = "WWW.Example.Com";
  req.started_at = 1000;
  const StreamId id1 = s.submit_request(req);
  EXPECT_EQ(id1, 1u);  // client stream ids are odd
  const StreamId id2 = s.submit_request(req);
  EXPECT_EQ(id2, 3u);
  EXPECT_EQ(s.active_streams(), 2u);
  EXPECT_TRUE(s.complete_request(id1, 200, 1100));
  EXPECT_EQ(s.active_streams(), 1u);
  EXPECT_EQ(s.requests().size(), 2u);
  EXPECT_EQ(s.requests()[0].authority, "www.example.com");  // lowered
  EXPECT_EQ(s.requests()[0].status, 200);
  EXPECT_EQ(s.requests()[0].finished_at, 1100);
  EXPECT_EQ(s.max_observed_concurrency(), 2u);
}

TEST(Session, CompleteUnknownStreamFails) {
  Session s = make_session();
  EXPECT_FALSE(s.complete_request(99, 200, 1));
}

TEST(Session, DoubleCompleteFails) {
  Session s = make_session();
  const StreamId id = s.submit_request({});
  EXPECT_TRUE(s.complete_request(id, 200, 1));
  EXPECT_FALSE(s.complete_request(id, 200, 2));
}

TEST(Session, ConcurrencyLimitRefusesStreams) {
  Session::Params params;
  params.certificate = tls::Certificate::make({"x", {"x"}, "CA"});
  params.peer_settings.max_concurrent_streams = 2;
  Session s{std::move(params)};
  EXPECT_NE(s.submit_request({}), 0u);
  EXPECT_NE(s.submit_request({}), 0u);
  EXPECT_EQ(s.submit_request({}), 0u);  // refused
  EXPECT_TRUE(s.complete_request(1, 200, 5));
  EXPECT_NE(s.submit_request({}), 0u);  // slot freed
}

TEST(Session, CertificateCoverage) {
  Session s = make_session();
  EXPECT_TRUE(s.certificate_covers("img.example.com"));
  EXPECT_FALSE(s.certificate_covers("example.com"));
  EXPECT_FALSE(s.certificate_covers("other.net"));
}

TEST(Session, Http421MarksAuthorityRejected) {
  Session s = make_session();
  RequestEntry req;
  req.authority = "alias.example.com";
  const StreamId id = s.submit_request(req);
  EXPECT_TRUE(s.allows_authority("alias.example.com"));
  s.complete_request(id, 421, 50);
  EXPECT_TRUE(s.is_rejected("alias.example.com"));
  EXPECT_TRUE(s.is_rejected("ALIAS.example.com"));
  EXPECT_FALSE(s.allows_authority("alias.example.com"));
  EXPECT_TRUE(s.allows_authority("www.example.com"));
}

TEST(Session, OriginSetBoundsCoalescing) {
  Session s = make_session();
  EXPECT_FALSE(s.has_origin_set());
  // Without an origin set, any covered domain is allowed.
  EXPECT_TRUE(s.allows_authority("cdn.example.com"));

  OriginFrame frame;
  frame.origins = {"https://www.example.com", "https://img.example.com"};
  s.receive_origin_frame(frame);
  EXPECT_TRUE(s.has_origin_set());
  EXPECT_TRUE(s.allows_authority("img.example.com"));
  // Covered by the cert but NOT in the origin set -> excluded.
  EXPECT_FALSE(s.allows_authority("cdn.example.com"));
  // In set via later frame (frames accumulate).
  OriginFrame more;
  more.origins = {"https://cdn.example.com"};
  s.receive_origin_frame(more);
  EXPECT_TRUE(s.allows_authority("cdn.example.com"));
  // Origin set cannot override the certificate requirement.
  OriginFrame rogue;
  rogue.origins = {"https://evil.net"};
  s.receive_origin_frame(rogue);
  EXPECT_FALSE(s.allows_authority("evil.net"));
}

TEST(Session, OriginWithPortParsesHost) {
  Session s = make_session();
  OriginFrame frame;
  frame.origins = {"https://alt.example.com:8443"};
  s.receive_origin_frame(frame);
  EXPECT_TRUE(s.allows_authority("alt.example.com"));
}

TEST(Session, GoawayStopsNewStreams) {
  Session s = make_session();
  const StreamId id = s.submit_request({});
  s.receive_goaway(ErrorCode::kNoError);
  EXPECT_FALSE(s.is_open());
  EXPECT_EQ(s.submit_request({}), 0u);
  // Existing streams can still complete.
  EXPECT_TRUE(s.complete_request(id, 200, 9));
}

TEST(Session, CloseRecordsTimeOnce) {
  Session s = make_session();
  EXPECT_FALSE(s.is_closed());
  s.close(5000);
  EXPECT_TRUE(s.is_closed());
  EXPECT_EQ(s.closed_at(), 5000);
  s.close(9000);
  EXPECT_EQ(s.closed_at(), 5000);
  EXPECT_EQ(s.active_streams(), 0u);
}

TEST(Session, PrivacyModeIsExposed) {
  EXPECT_FALSE(make_session(false).privacy_mode());
  EXPECT_TRUE(make_session(true).privacy_mode());
}

}  // namespace
}  // namespace h2r::http2

// IP address, CIDR prefix and endpoint types.
//
// IPv4 and IPv6 are stored in one 16-byte value type (v4 occupies the first
// 4 bytes). The paper's analysis groups addresses by /24 (the "slightly
// different IPs in the same /24 network" observation), which `Prefix` and
// `IpAddress::slash24()` support directly.
#pragma once

#include <array>
#include <compare>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

#include "util/expected.hpp"

namespace h2r::net {

enum class Family : std::uint8_t { kV4 = 4, kV6 = 6 };

class IpAddress {
 public:
  /// Default: the unspecified IPv4 address 0.0.0.0.
  constexpr IpAddress() noexcept = default;

  /// Builds an IPv4 address from a host-order 32-bit value.
  static IpAddress v4(std::uint32_t host_order) noexcept;

  /// Builds an IPv4 address from four octets.
  static IpAddress v4(std::uint8_t a, std::uint8_t b, std::uint8_t c,
                      std::uint8_t d) noexcept;

  /// Builds an IPv6 address from 16 bytes (network order).
  static IpAddress v6(const std::array<std::uint8_t, 16>& bytes) noexcept;

  /// Parses dotted-quad IPv4 or RFC 4291 IPv6 (with `::` compression).
  static util::Expected<IpAddress> parse(std::string_view text);

  Family family() const noexcept { return family_; }
  bool is_v4() const noexcept { return family_ == Family::kV4; }
  bool is_v6() const noexcept { return family_ == Family::kV6; }

  /// Host-order 32-bit value; only meaningful for v4.
  std::uint32_t v4_value() const noexcept;

  const std::array<std::uint8_t, 16>& bytes() const noexcept { return bytes_; }

  /// Number of address bits (32 or 128).
  int bit_length() const noexcept { return is_v4() ? 32 : 128; }

  /// Returns bit `i` counting from the most significant bit of the address.
  bool bit(int i) const noexcept;

  /// The address with all bits below `prefix_len` cleared.
  IpAddress masked(int prefix_len) const noexcept;

  /// The enclosing /24 (v4) or /48 (v6) network address — the granularity
  /// the paper uses when discussing "same /24" load balancing.
  IpAddress slash24() const noexcept;

  /// Room for the longest text form: a full IPv6 address, eight groups
  /// of four hex digits and seven colons.
  using TextBuffer = std::array<char, 39>;

  /// Writes the text form into `out` (dotted quad for v4, RFC 5952 for v6)
  /// and returns it as a view of `out`. to_string() copies this, so hashing
  /// the view hashes the same bytes without a heap string.
  std::string_view format(TextBuffer& out) const noexcept;

  std::string to_string() const;

  friend std::strong_ordering operator<=>(const IpAddress& a,
                                          const IpAddress& b) noexcept;
  friend bool operator==(const IpAddress& a, const IpAddress& b) noexcept;

 private:
  Family family_ = Family::kV4;
  std::array<std::uint8_t, 16> bytes_{};  // v4 in bytes 0..3
};

/// A CIDR prefix: base address plus prefix length.
class Prefix {
 public:
  Prefix() noexcept = default;
  Prefix(IpAddress base, int length) noexcept;

  /// Parses "a.b.c.d/len" or "v6::/len".
  static util::Expected<Prefix> parse(std::string_view text);

  const IpAddress& base() const noexcept { return base_; }
  int length() const noexcept { return length_; }

  bool contains(const IpAddress& addr) const noexcept;

  std::string to_string() const;

  friend bool operator==(const Prefix& a, const Prefix& b) noexcept = default;

 private:
  IpAddress base_;
  int length_ = 0;
};

/// Transport endpoint: address + port. HTTP/2 Connection Reuse requires both
/// to match (RFC 7540 §9.1.1).
struct Endpoint {
  IpAddress address;
  std::uint16_t port = 443;

  std::string to_string() const;

  friend std::strong_ordering operator<=>(const Endpoint&,
                                          const Endpoint&) noexcept = default;
  friend bool operator==(const Endpoint&, const Endpoint&) noexcept = default;
};

}  // namespace h2r::net

template <>
struct std::hash<h2r::net::IpAddress> {
  std::size_t operator()(const h2r::net::IpAddress& a) const noexcept {
    std::size_t h = static_cast<std::size_t>(a.family());
    for (std::uint8_t b : a.bytes()) h = h * 1099511628211ull + b;
    return h;
  }
};

template <>
struct std::hash<h2r::net::Endpoint> {
  std::size_t operator()(const h2r::net::Endpoint& e) const noexcept {
    return std::hash<h2r::net::IpAddress>{}(e.address) * 31 + e.port;
  }
};

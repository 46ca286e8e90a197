#include "net/ip.hpp"

#include <cassert>
#include <cstdlib>

#include "util/strings.hpp"

namespace h2r::net {

IpAddress IpAddress::v4(std::uint32_t host_order) noexcept {
  IpAddress a;
  a.family_ = Family::kV4;
  a.bytes_[0] = static_cast<std::uint8_t>(host_order >> 24);
  a.bytes_[1] = static_cast<std::uint8_t>(host_order >> 16);
  a.bytes_[2] = static_cast<std::uint8_t>(host_order >> 8);
  a.bytes_[3] = static_cast<std::uint8_t>(host_order);
  return a;
}

IpAddress IpAddress::v4(std::uint8_t a, std::uint8_t b, std::uint8_t c,
                        std::uint8_t d) noexcept {
  return v4((static_cast<std::uint32_t>(a) << 24) |
            (static_cast<std::uint32_t>(b) << 16) |
            (static_cast<std::uint32_t>(c) << 8) | d);
}

IpAddress IpAddress::v6(const std::array<std::uint8_t, 16>& bytes) noexcept {
  IpAddress a;
  a.family_ = Family::kV6;
  a.bytes_ = bytes;
  return a;
}

std::uint32_t IpAddress::v4_value() const noexcept {
  return (static_cast<std::uint32_t>(bytes_[0]) << 24) |
         (static_cast<std::uint32_t>(bytes_[1]) << 16) |
         (static_cast<std::uint32_t>(bytes_[2]) << 8) | bytes_[3];
}

bool IpAddress::bit(int i) const noexcept {
  assert(i >= 0 && i < bit_length());
  const int byte = i / 8;
  const int offset = 7 - i % 8;
  return ((bytes_[static_cast<std::size_t>(byte)] >> offset) & 1) != 0;
}

IpAddress IpAddress::masked(int prefix_len) const noexcept {
  IpAddress out = *this;
  const int bits = bit_length();
  if (prefix_len >= bits) return out;
  if (prefix_len < 0) prefix_len = 0;
  const std::size_t total_bytes = static_cast<std::size_t>(bits / 8);
  const std::size_t full = static_cast<std::size_t>(prefix_len / 8);
  const int rem = prefix_len % 8;
  std::size_t i = full;
  if (rem != 0 && i < total_bytes) {
    const std::uint8_t mask =
        static_cast<std::uint8_t>(0xFFu << (8 - rem));
    out.bytes_[i] = static_cast<std::uint8_t>(out.bytes_[i] & mask);
    ++i;
  }
  for (; i < total_bytes; ++i) out.bytes_[i] = 0;
  return out;
}

IpAddress IpAddress::slash24() const noexcept {
  return masked(is_v4() ? 24 : 48);
}

namespace {

util::Expected<IpAddress> parse_v4(std::string_view text) {
  const auto parts = util::split(text, '.');
  if (parts.size() != 4) {
    return util::unexpected(util::Error{"IPv4 needs 4 octets"});
  }
  std::array<std::uint8_t, 4> octets{};
  for (std::size_t i = 0; i < 4; ++i) {
    const std::string_view p = parts[i];
    if (p.empty() || p.size() > 3) {
      return util::unexpected(util::Error{"bad IPv4 octet"});
    }
    unsigned value = 0;
    for (char c : p) {
      if (c < '0' || c > '9') {
        return util::unexpected(util::Error{"bad IPv4 octet"});
      }
      value = value * 10 + static_cast<unsigned>(c - '0');
    }
    if (value > 255) {
      return util::unexpected(util::Error{"IPv4 octet out of range"});
    }
    octets[i] = static_cast<std::uint8_t>(value);
  }
  return IpAddress::v4(octets[0], octets[1], octets[2], octets[3]);
}

util::Expected<IpAddress> parse_v6(std::string_view text) {
  // Split on "::" first; each side is a list of 16-bit groups.
  std::array<std::uint8_t, 16> bytes{};
  const std::size_t gap = text.find("::");
  std::vector<std::uint16_t> head;
  std::vector<std::uint16_t> tail;

  auto parse_groups = [](std::string_view part,
                         std::vector<std::uint16_t>& out) -> bool {
    if (part.empty()) return true;
    for (std::string_view g : util::split(part, ':')) {
      if (g.empty() || g.size() > 4) return false;
      unsigned value = 0;
      for (char c : g) {
        value <<= 4;
        if (c >= '0' && c <= '9') {
          value |= static_cast<unsigned>(c - '0');
        } else if (c >= 'a' && c <= 'f') {
          value |= static_cast<unsigned>(c - 'a' + 10);
        } else if (c >= 'A' && c <= 'F') {
          value |= static_cast<unsigned>(c - 'A' + 10);
        } else {
          return false;
        }
      }
      out.push_back(static_cast<std::uint16_t>(value));
    }
    return true;
  };

  if (gap == std::string_view::npos) {
    if (!parse_groups(text, head) || head.size() != 8) {
      return util::unexpected(util::Error{"bad IPv6 address"});
    }
  } else {
    if (text.find("::", gap + 1) != std::string_view::npos) {
      return util::unexpected(util::Error{"multiple '::' in IPv6"});
    }
    if (!parse_groups(text.substr(0, gap), head) ||
        !parse_groups(text.substr(gap + 2), tail) ||
        head.size() + tail.size() >= 8) {
      return util::unexpected(util::Error{"bad IPv6 address"});
    }
  }
  std::vector<std::uint16_t> groups(8, 0);
  for (std::size_t i = 0; i < head.size(); ++i) groups[i] = head[i];
  for (std::size_t i = 0; i < tail.size(); ++i) {
    groups[8 - tail.size() + i] = tail[i];
  }
  for (std::size_t i = 0; i < 8; ++i) {
    bytes[2 * i] = static_cast<std::uint8_t>(groups[i] >> 8);
    bytes[2 * i + 1] = static_cast<std::uint8_t>(groups[i] & 0xFF);
  }
  return IpAddress::v6(bytes);
}

}  // namespace

util::Expected<IpAddress> IpAddress::parse(std::string_view text) {
  if (text.find(':') != std::string_view::npos) return parse_v6(text);
  return parse_v4(text);
}

std::string_view IpAddress::format(TextBuffer& out) const noexcept {
  char* p = out.data();
  if (is_v4()) {
    for (std::size_t i = 0; i < 4; ++i) {
      if (i > 0) *p++ = '.';
      const unsigned octet = bytes_[i];
      if (octet >= 100) *p++ = static_cast<char>('0' + octet / 100);
      if (octet >= 10) *p++ = static_cast<char>('0' + octet / 10 % 10);
      *p++ = static_cast<char>('0' + octet % 10);
    }
    return {out.data(), static_cast<std::size_t>(p - out.data())};
  }
  // RFC 5952 canonical form: compress the longest run of zero groups.
  std::array<std::uint16_t, 8> groups{};
  for (std::size_t i = 0; i < 8; ++i) {
    groups[i] = static_cast<std::uint16_t>((bytes_[2 * i] << 8) |
                                           bytes_[2 * i + 1]);
  }
  int best_start = -1;
  int best_len = 0;
  for (int i = 0; i < 8;) {
    if (groups[static_cast<std::size_t>(i)] != 0) {
      ++i;
      continue;
    }
    int j = i;
    while (j < 8 && groups[static_cast<std::size_t>(j)] == 0) ++j;
    if (j - i > best_len) {
      best_start = i;
      best_len = j - i;
    }
    i = j;
  }
  if (best_len < 2) best_start = -1;  // Don't compress a single zero group.

  static constexpr char kHex[] = "0123456789abcdef";
  for (int i = 0; i < 8;) {
    if (i == best_start) {
      *p++ = ':';
      *p++ = ':';
      i += best_len;
      continue;
    }
    if (p != out.data() && p[-1] != ':') *p++ = ':';
    // Lowercase hex without leading zeros.
    const unsigned group = groups[static_cast<std::size_t>(i)];
    for (int shift = 12; shift >= 0; shift -= 4) {
      if (shift == 0 || group >> shift != 0) {
        *p++ = kHex[(group >> shift) & 0xFu];
      }
    }
    ++i;
  }
  return {out.data(), static_cast<std::size_t>(p - out.data())};
}

std::string IpAddress::to_string() const {
  TextBuffer text{};
  return std::string(format(text));
}

std::strong_ordering operator<=>(const IpAddress& a,
                                 const IpAddress& b) noexcept {
  if (a.family_ != b.family_) {
    return a.family_ < b.family_ ? std::strong_ordering::less
                                 : std::strong_ordering::greater;
  }
  return a.bytes_ <=> b.bytes_;
}

bool operator==(const IpAddress& a, const IpAddress& b) noexcept {
  return a.family_ == b.family_ && a.bytes_ == b.bytes_;
}

Prefix::Prefix(IpAddress base, int length) noexcept
    : base_(base.masked(length)), length_(length) {
  assert(length >= 0 && length <= base.bit_length());
}

util::Expected<Prefix> Prefix::parse(std::string_view text) {
  const std::size_t slash = text.find('/');
  if (slash == std::string_view::npos) {
    return util::unexpected(util::Error{"prefix needs '/len'"});
  }
  auto addr = IpAddress::parse(text.substr(0, slash));
  if (!addr) return util::unexpected(addr.error());
  const std::string len_str(text.substr(slash + 1));
  char* end = nullptr;
  const long len = std::strtol(len_str.c_str(), &end, 10);
  if (end != len_str.c_str() + len_str.size() || len < 0 ||
      len > addr->bit_length()) {
    return util::unexpected(util::Error{"bad prefix length"});
  }
  return Prefix{addr.value(), static_cast<int>(len)};
}

bool Prefix::contains(const IpAddress& addr) const noexcept {
  if (addr.family() != base_.family()) return false;
  return addr.masked(length_) == base_;
}

std::string Prefix::to_string() const {
  return base_.to_string() + "/" + std::to_string(length_);
}

std::string Endpoint::to_string() const {
  if (address.is_v6()) {
    return "[" + address.to_string() + "]:" + std::to_string(port);
  }
  return address.to_string() + ":" + std::to_string(port);
}

}  // namespace h2r::net

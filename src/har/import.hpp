// HAR -> SiteObservation with the paper's §4.3 consistency filters.
//
// The HTTP Archive's HAR files are noisy; the paper conservatively drops
// requests with socket id 0 (indistinguishable HTTP/3 sockets), missing or
// inconsistent IPs, invalid methods/versions/statuses, wrong page
// references, missing request ids and missing certificates, and all
// HTTP/1.x / HTTP/3 requests. Each drop category is counted so the bench
// can print the paper's inconsistency inventory.
#pragma once

#include <cstdint>
#include <tuple>

#include "core/connection.hpp"
#include "har/har.hpp"
#include "util/fields.hpp"

namespace h2r::har {

struct ImportStats {
  std::uint64_t total_entries = 0;
  std::uint64_t h2_entries = 0;        // entries claiming HTTP/2
  std::uint64_t used_entries = 0;      // surviving all filters

  std::uint64_t socket_zero = 0;
  std::uint64_t missing_ip = 0;
  std::uint64_t inconsistent_ip = 0;
  std::uint64_t invalid_method = 0;
  std::uint64_t invalid_version = 0;
  std::uint64_t invalid_status = 0;
  std::uint64_t wrong_pageref = 0;
  std::uint64_t missing_request_id = 0;
  std::uint64_t missing_certificate = 0;
  std::uint64_t h1_entries = 0;
  std::uint64_t h3_entries = 0;

  std::uint64_t dropped() const noexcept {
    return socket_zero + missing_ip + inconsistent_ip + invalid_method +
           invalid_version + invalid_status + wrong_pageref +
           missing_request_id + missing_certificate;
  }

  void add(const ImportStats& other) noexcept;

  bool operator==(const ImportStats&) const = default;
};

/// Field table (util/fields.hpp).
auto fields(util::RecordOf<ImportStats> auto& s) {
  auto& [total_entries, h2_entries, used_entries, socket_zero, missing_ip,
         inconsistent_ip, invalid_method, invalid_version, invalid_status,
         wrong_pageref, missing_request_id, missing_certificate, h1_entries,
         h3_entries] = s;
  using util::row;
  return std::tuple(
      row("total_entries", total_entries), row("h2_entries", h2_entries),
      row("used_entries", used_entries), row("socket_zero", socket_zero),
      row("missing_ip", missing_ip), row("inconsistent_ip", inconsistent_ip),
      row("invalid_method", invalid_method),
      row("invalid_version", invalid_version),
      row("invalid_status", invalid_status),
      row("wrong_pageref", wrong_pageref),
      row("missing_request_id", missing_request_id),
      row("missing_certificate", missing_certificate),
      row("h1_entries", h1_entries), row("h3_entries", h3_entries));
}

/// Parses one site's HAR into connection records (request-level only: no
/// close times; a connection opens at its first request). `stats`
/// accumulates filter counts when non-null.
core::SiteObservation import_site(const Log& log, ImportStats* stats);

}  // namespace h2r::har

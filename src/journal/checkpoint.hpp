// Checkpoint records: what the study engine journals per completed chunk.
//
// A chunk checkpoint captures everything needed to reconstruct a worker's
// contribution for a contiguous-ish slice of a campaign: which absolute
// rank ranges it covered, the CrawlSummary for those sites, and the
// full-fidelity AggregateReports built from them. Because report and
// summary merges are commutative, replaying journaled chunks in any order
// and crawling only the complement reproduces the uninterrupted run
// bit-for-bit.
//
// Serialization is generated from the field tables (json/fields.hpp) and
// strict both ways: to_json emits full-fidelity reports (no top-N
// truncation — see core::to_json_full), and chunk_from_json rejects
// structurally invalid documents rather than guessing.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "browser/crawl.hpp"
#include "core/report_json.hpp"
#include "json/json.hpp"
#include "util/expected.hpp"

namespace h2r::journal {

/// Crawl summary codec (full fidelity; per-worker split and wall time are
/// deliberately excluded — they are observability, not state).
json::Value to_json(const browser::CrawlSummary& summary);
util::Expected<browser::CrawlSummary> crawl_summary_from_json(
    const json::Value& value);

/// One journaled unit of completed work.
struct ChunkCheckpoint {
  /// Which campaign the chunk belongs to: "alexa", "nofetch" or "har".
  std::string campaign;
  /// Absolute (first_rank, count) runs covered by this chunk. Usually one
  /// run; more when a resume interleaves leftover ranks.
  std::vector<std::pair<std::size_t, std::size_t>> ranges;
  /// Crawl counters for exactly the sites in `ranges`.
  browser::CrawlSummary summary;
  /// Named full-fidelity reports for exactly the sites in `ranges`.
  std::vector<std::pair<std::string, core::AggregateReport>> reports;
  /// Named policy-replay tallies for the sites in `ranges` (optimizer
  /// chunks only — one per policy point, keyed by Policy::label()).
  /// Serialized only when non-empty, so study journal bytes are unchanged.
  std::vector<std::pair<std::string, core::PolicyTally>> tallies;
  /// Sites that appeared in both study halves (har campaign only).
  std::uint64_t overlap_sites = 0;

  /// Total number of sites across all ranges.
  std::size_t site_count() const noexcept;

  bool operator==(const ChunkCheckpoint&) const = default;
};

/// Field table (util/fields.hpp): codec only. A chunk needs a campaign
/// name and at least one range; `tallies` is written only when non-empty,
/// so study journal bytes are unchanged.
auto fields(util::RecordOf<ChunkCheckpoint> auto& c) {
  auto& [campaign, ranges, summary, reports, tallies, overlap_sites] = c;
  constexpr unsigned kCodec = util::kSerialized | util::kCompared;
  using util::row;
  return std::tuple(row<kCodec | util::kNonEmpty>("campaign", campaign),
                    row<kCodec | util::kNonEmpty>("ranges", ranges),
                    row<kCodec>("summary", summary),
                    row<kCodec>("reports", reports),
                    row<kCodec | util::kOptional>("tallies", tallies),
                    row<kCodec>("overlap_sites", overlap_sites));
}

json::Value to_json(const ChunkCheckpoint& chunk);
util::Expected<ChunkCheckpoint> chunk_from_json(const json::Value& value);

}  // namespace h2r::journal

// Streaming fold of per-chunk report windows.
//
// A study never keeps per-site state: each crawl worker
// aggregates a chunk's sites into chunk-local AggregateReports (a
// "window"), hands the window over at the chunk boundary, and resets.
// ReportFold is where those windows go: a thread-safe, commutative merge
// into in-memory campaign totals, so the memory high-water mark of a
// million-site campaign is O(workers * window + totals) instead of
// O(sites).
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>

#include "browser/crawl.hpp"
#include "core/report.hpp"
#include "journal/checkpoint.hpp"
#include "util/expected.hpp"

namespace h2r::journal {

/// Everything a fold accumulated. `reports`, `tallies`, `overlap_sites`
/// and `summary` (the windows' crawl counters) are the measurement state;
/// `windows` is a diagnostic.
struct FoldTotals {
  std::map<std::string, core::AggregateReport> reports;
  /// Policy-replay tallies by Policy::label() (optimizer folds only).
  std::map<std::string, core::PolicyTally> tallies;
  browser::CrawlSummary summary;
  std::uint64_t overlap_sites = 0;
  std::uint64_t windows = 0;
};

class ReportFold {
 public:
  ReportFold() = default;
  ReportFold(const ReportFold&) = delete;
  ReportFold& operator=(const ReportFold&) = delete;

  /// Merges one window into the totals. Thread-safe — crawl workers call
  /// this from their chunk sinks concurrently; merge commutativity makes
  /// the totals independent of arrival order. Cannot fail: the result is
  /// always `true`.
  util::Expected<bool> fold(const ChunkCheckpoint& window);

  /// Moves the accumulated totals out. Cannot fail. Call once, after the
  /// last fold().
  util::Expected<FoldTotals> finish();

  std::uint64_t windows() const noexcept;

 private:
  mutable std::mutex mutex_;  // guards: totals_
  FoldTotals totals_;
};

}  // namespace h2r::journal

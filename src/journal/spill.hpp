// Streaming fold of per-chunk report windows.
//
// A study never keeps per-site state: each crawl worker
// aggregates a chunk's sites into chunk-local AggregateReports (a
// "window"), hands the window over at the chunk boundary, and resets.
// ReportFold is where those windows go: a thread-safe, commutative merge
// into campaign totals, so the memory high-water mark of a million-site
// campaign is O(workers * window) instead of O(sites).
//
// Two modes share one interface:
//
//   * resident (default): windows merge straight into in-memory totals;
//   * spilling: windows are framed through the journal codec
//     (checkpoint.hpp + journal.hpp) to a spill file as they arrive and
//     only merged back at finish(), keeping even the totals off the heap
//     until the end. Because report/summary merges are commutative and
//     the codec is full-fidelity, both modes produce identical totals —
//     tests/streaming_crawl_test.cpp pins this equivalence.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "browser/crawl.hpp"
#include "core/report.hpp"
#include "journal/checkpoint.hpp"
#include "journal/journal.hpp"
#include "util/expected.hpp"

namespace h2r::journal {

/// Everything a fold accumulated. `reports`, `tallies`, `overlap_sites`
/// and `summary` (the windows' crawl counters) are the measurement state;
/// `windows`/`spill_bytes` are diagnostics.
struct FoldTotals {
  std::map<std::string, core::AggregateReport> reports;
  /// Policy-replay tallies by Policy::label() (optimizer folds only).
  std::map<std::string, core::PolicyTally> tallies;
  browser::CrawlSummary summary;
  std::uint64_t overlap_sites = 0;
  std::uint64_t windows = 0;
  std::uint64_t spill_bytes = 0;
};

class ReportFold {
 public:
  /// Resident fold: windows merge into in-memory totals immediately.
  ReportFold() = default;

  /// Spilling fold: windows are committed to `path` as journal frames
  /// and merged only at finish(). Fails when the file cannot be created.
  static util::Expected<std::unique_ptr<ReportFold>> spilling(
      const std::string& path);

  ReportFold(const ReportFold&) = delete;
  ReportFold& operator=(const ReportFold&) = delete;

  /// Folds one window. Thread-safe — crawl workers call this from their
  /// chunk sinks concurrently; merge commutativity makes the totals
  /// independent of arrival order. Resident folds cannot fail; a
  /// spilling fold surfaces write errors here.
  util::Expected<bool> fold(const ChunkCheckpoint& window);

  /// Returns the accumulated totals. A spilling fold replays its spill
  /// file here (erroring on unreadable or torn frames — the file is
  /// process-local, so a torn tail means lost windows, not a crash to
  /// tolerate). Call once, after the last fold().
  util::Expected<FoldTotals> finish();

  std::uint64_t windows() const noexcept;

 private:
  ReportFold(std::unique_ptr<JournalWriter> writer, std::string path)
      : writer_(std::move(writer)), spill_path_(std::move(path)) {}

  mutable std::mutex mutex_;  // guards: totals_, writer_ use
  FoldTotals totals_;
  std::unique_ptr<JournalWriter> writer_;  // non-null = spilling mode
  std::string spill_path_;
};

}  // namespace h2r::journal

#include "journal/spill.hpp"

#include <utility>

namespace h2r::journal {

util::Expected<bool> ReportFold::fold(const ChunkCheckpoint& window) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [name, report] : window.reports) {
    totals_.reports[name].merge(report);
  }
  for (const auto& [name, tally] : window.tallies) {
    totals_.tallies[name].merge(tally);
  }
  totals_.summary.merge(window.summary);
  totals_.overlap_sites += window.overlap_sites;
  ++totals_.windows;
  return true;
}

util::Expected<FoldTotals> ReportFold::finish() {
  std::lock_guard<std::mutex> lock(mutex_);
  return std::move(totals_);
}

std::uint64_t ReportFold::windows() const noexcept {
  std::lock_guard<std::mutex> lock(mutex_);
  return totals_.windows;
}

}  // namespace h2r::journal

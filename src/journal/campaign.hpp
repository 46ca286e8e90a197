// Campaign runner: the one way the study and the optimizer crawl.
//
// A campaign is data: a CampaignSpec names the crawl, the observation its
// sites are classified from, the reports it aggregates and, for the
// optimizer, the policy tallies it scores. run_campaigns() crawls every
// spec concurrently, each with its own `crawl.threads` workers:
//
//   per site     classify once per distinct policy into the worker's
//                chunk-local window;
//   per chunk    window -> ChunkCheckpoint -> crash journal (when open)
//                -> ReportFold, then reset the window.
//
// A resumed run folds the journal's chunks first and crawls only the
// ranks they lack. Report and summary merges are commutative, so the
// outcome is the same for every thread count, chunking and resume split.
// Errors surface on the calling thread once every campaign has joined.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "asdb/asdb.hpp"
#include "browser/crawl.hpp"
#include "core/policy.hpp"
#include "journal/spill.hpp"
#include "json/json.hpp"
#include "obs/metrics.hpp"
#include "web/sitegen.hpp"

namespace h2r::journal {

/// Which per-site observation a campaign classifies.
enum class ObservationSource {
  kNetLog,  // SiteResult::netlog_observation (exact lifecycles)
  kHar,     // SiteResult::har_observation (needs crawl.har_path)
};

/// One report a campaign aggregates.
struct ReportSlot {
  /// Key in journal chunks and in FoldTotals::reports.
  std::string name;
  core::Policy policy;
  /// Only sites inside the spec's overlap span feed this report.
  bool overlap_only = false;
};

/// One optimizer tally: `policy`'s classification of each site, scored
/// against the classification of the campaign's first report slot.
struct TallySlot {
  /// Key in journal chunks and in FoldTotals::tallies.
  std::string name;
  core::Policy policy;
};

struct CampaignSpec {
  /// Journal campaign tag ("alexa", "har", ...).
  std::string name;
  /// The crawl; its observer and targets belong to the runner.
  browser::CrawlOptions crawl;
  std::size_t first_rank = 0;
  std::size_t count = 0;
  ObservationSource source = ObservationSource::kNetLog;
  /// Journal chunks carry the reports in this order.
  std::vector<ReportSlot> reports;
  std::vector<TallySlot> tallies;
  /// Absolute ranks [overlap_begin, overlap_end) overlap-only slots see.
  std::size_t overlap_begin = 0;
  std::size_t overlap_end = 0;
  /// Count the reachable sites inside the overlap span.
  bool count_overlap_sites = false;
};

/// Settings shared by every campaign of one run.
struct CampaignRunOptions {
  /// AS database for the aggregators' per-AS tables.
  const asdb::AsDatabase* as_db = nullptr;
  /// Bin budget for report and metric histograms (0 = exact).
  std::uint32_t hist_budget = 0;
  /// Crash journal every chunk is committed to; empty = no journal.
  std::string journal_path;
  /// Recover the journal's chunks and crawl only the remaining ranks.
  bool resume = false;
  /// Pinned in a new journal's header; a resumed journal must match it.
  json::Value fingerprint;
};

struct CampaignOutcome {
  /// Every chunk's windows folded, journal-recovered ones included. The
  /// summary also carries this run's per-worker crawl diagnostics.
  FoldTotals totals;
  /// Metric shards of the sites crawled this run (deterministic domain
  /// plus the crawl's diagnostics).
  obs::Metrics metrics;
  /// Work recovered from the journal instead of crawled.
  std::uint64_t resumed_chunks = 0;
  std::uint64_t resumed_sites = 0;
};

struct RunOutcome {
  /// One entry per spec, in spec order.
  std::vector<CampaignOutcome> campaigns;
  /// Journal telemetry (zero without a journal).
  std::uint64_t journal_bytes = 0;
  std::uint64_t journal_fsyncs = 0;
};

/// Crawls every spec concurrently and folds its windows. Throws
/// std::runtime_error when the journal cannot be opened, was written by a
/// different fingerprint, or holds chunks of an unknown campaign, outside
/// its rank range, overlapping, or whose report or tally names differ
/// from the campaign's slots; and, after every campaign has joined, on
/// the first campaign failure or failed journal append.
RunOutcome run_campaigns(web::SiteUniverse& universe,
                         const std::vector<CampaignSpec>& specs,
                         const CampaignRunOptions& options);

}  // namespace h2r::journal

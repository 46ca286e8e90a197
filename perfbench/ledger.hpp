// Span recording and the per-layer ledger of a traced benchmark pass.
//
// The traced pass wraps every call into a library layer in a span: name,
// start, end, parent, and a site id shared by all spans of one visit. Each
// thread records into its own SpanBuffer (no locking); the buffers are
// kept in memory and written out when the benchmark ends.
//
// Ledger arithmetic is in integer nanoseconds. A span's self time is its
// duration minus its children's durations. Structural spans (a thread's
// root, a campaign, a site visit) are not layers: their self time is the
// ledger's `unattributed` row. Excluded spans (the NetLog re-timing probe,
// the main thread waiting for campaign threads) are leaves kept outside
// the ledger, so
//
//   sum(layer self) + unattributed == sum(root durations) - sum(excluded)
//
// holds exactly: that right-hand side is the ledger total.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Every span the traced passes record, by id.
enum Name : std::uint8_t {
  kPass,                // structural: a thread's whole traced life
  kCampaign,            // structural: one campaign's crawl loop
  kSite,                // structural: one site visit
  kWebSetup,            // Ecosystem + ServiceCatalog + SiteUniverse
  kGenerateSite,        // SiteUniverse::generate_site
  kFlushCache,          // RecursiveResolver::flush_cache
  kBrowserLoad,         // Browser::load
  kStitchProbe,         // netlog::stitch_site, re-timed (excluded)
  kHarExport,           // har::export_site
  kHarImport,           // har::import_site
  kCorePrepare,         // ClassifyContext::prepare
  kCoreClassify,        // ClassifyContext::classify, baseline policies
  kCoreClassifyReplay,  // ClassifyContext::classify, counterfactual policies
  kCoreAddSite,         // Aggregator::add_site
  kTallyAdd,            // PolicyTally::add_site
  kJournalFold,         // ReportFold::fold and ReportFold::finish
  kOutputWrite,         // build + write the deterministic document
  kCollectTraces,       // proxy::collect_traces
  kReplayWorker,        // proxy::replay_traces, worker architecture
  kReplayShared,        // proxy::replay_traces, shared architecture
  kWaitCampaigns,       // main thread joining campaign threads (excluded)
  kNameCount,
};

struct Span {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  // index into the same buffer, -1 = root
  std::uint64_t site = 0;    // 0 = not part of a site visit
  Name name = kPass;
};

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One thread's spans. Not thread-safe: one buffer per thread.
class SpanBuffer {
 public:
  /// Opens a span as a child of the innermost open span.
  std::int32_t begin(Name name, std::uint64_t site = 0);
  void end(std::int32_t index);

  const std::vector<Span>& spans() const noexcept { return spans_; }
  void reserve(std::size_t n) { spans_.reserve(n); }

 private:
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
};

/// RAII span: begins on construction, ends on destruction.
class Scope {
 public:
  Scope(SpanBuffer& buffer, Name name, std::uint64_t site = 0)
      : buffer_(buffer), index_(buffer.begin(name, site)) {}
  ~Scope() { buffer_.end(index_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanBuffer& buffer_;
  std::int32_t index_;
};

struct LayerTotals {
  std::int64_t self_ns = 0;
  std::uint64_t calls = 0;
};

struct Ledger {
  /// Layer spans and excluded probes by name.
  std::map<std::string, LayerTotals> layers;
  std::int64_t unattributed_ns = 0;
  std::int64_t total_ns = 0;     // sum(root durations) - sum(excluded)
  std::int64_t excluded_ns = 0;  // kept outside the total
  /// Durations (ns) of every kSite and kBrowserLoad span.
  std::vector<std::int64_t> site_ns;
  std::vector<std::int64_t> load_ns;
};

/// Folds every buffer into one ledger. Throws std::runtime_error when a
/// span is still open, a child escapes its parent, or an excluded span
/// has children — any of which would break the closure identity.
Ledger build_ledger(const std::vector<const SpanBuffer*>& buffers);

/// Nearest-rank percentile (q in [0, 1]) of `values`; 0 when empty.
std::int64_t percentile(std::vector<std::int64_t> values, double q);

/// Writes every span as one tab-separated line:
///   thread  index  parent  name  site  start_ns  end_ns
/// Returns false when the file cannot be written.
bool write_spans(const std::string& path,
                 const std::vector<const SpanBuffer*>& buffers);

}  // namespace perfbench

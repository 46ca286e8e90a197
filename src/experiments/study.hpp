// The full measurement study, reproducing the paper's three campaigns:
//
//   1. the HTTP-Archive-like crawl (US vantage, HAR path with §4.3
//      filtering, endless + immediate duration models),
//   2. the Alexa-like crawl (EU/Aachen vantage, NetLog path, exact +
//      endless durations, Fetch credentials honored),
//   3. the same Alexa crawl with the Fetch credentials flag ignored
//      (the paper's patched Chromium, "Alexa w/o Fetch").
//
// All three run concurrently, as journal::run_campaigns specs, against ONE
// shared synthetic web universe, so the site intersection (Tables 7-10)
// is meaningful. Every bench binary calls
// run_study() and prints its table from the returned aggregates; scale the
// populations via H2R_HAR_SITES / H2R_ALEXA_SITES / H2R_SEED.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "browser/crawl.hpp"
#include "core/report.hpp"
#include "fault/fault.hpp"
#include "har/import.hpp"
#include "obs/metrics.hpp"

namespace h2r::experiments {

struct StudyConfig {
  /// Number of sites in the HTTP-Archive-like population.
  std::size_t har_sites = 8000;
  /// Number of sites in the Alexa-like population (ranks 0..alexa_sites).
  std::size_t alexa_sites = 3000;
  /// First rank of the HAR population; the overlap with the Alexa range
  /// models the partially-intersecting site sets of the paper (§A.3).
  std::size_t har_first_rank = 2000;
  std::uint64_t seed = 42;
  /// Worker threads per campaign crawl, forwarded to
  /// CrawlOptions::threads; the campaigns run concurrently, so a study
  /// runs up to three times this many crawl workers. Results are
  /// identical for every value (the crawl's determinism contract); this
  /// only changes wall time. `from_env()` reads H2R_THREADS through
  /// util::env_threads, which clamps it to the machine's core count.
  unsigned threads = 1;
  /// Run the patched (ignore Fetch credentials) Alexa crawl as well.
  bool run_no_fetch = true;
  /// Run the HAR crawl as well.
  bool run_har = true;
  /// Fault injection, forwarded to every campaign's browser. Off by
  /// default; a chaos run sets uniform rates (H2R_FAULT_RATE).
  fault::FaultConfig faults;
  /// Per-site watchdog budget in simulated ms (0 = no deadline),
  /// forwarded to every campaign's browser. A page load still pending at
  /// start + budget is abandoned there and counted as deadline_exceeded.
  /// Simulated time, so the watchdog is deterministic and thread-count
  /// independent like everything else. `from_env()` reads
  /// H2R_SITE_DEADLINE_MS.
  util::SimTime site_deadline = 0;
  /// Crash-journal path; empty = journaling off. With a path set, every
  /// completed crawl chunk is committed (framed, CRC'd, fsynced) to this
  /// file before the study moves on, so a killed run loses at most the
  /// chunks in flight. `from_env()` reads H2R_JOURNAL.
  std::string journal_path;
  /// Resume from `journal_path` instead of truncating it: journaled
  /// chunks are recovered, only the remaining sites are crawled, and the
  /// merged result is bit-identical to an uninterrupted run (merge
  /// commutativity). The journal header's config fingerprint must match
  /// this config — thread count aside — or run_study throws.
  /// `from_env()` reads H2R_RESUME (any value but "" / "0").
  bool resume = false;
  /// Ignored: every study streams. perfbench/workload.cpp is its last writer.
  bool stream = false;
  /// Bin budget for every duration histogram the study aggregates
  /// (reports and metric shards). 0 = exact histograms; N > 0 bounds
  /// each histogram to N bins by deterministically coarsening the time
  /// resolution (stats::TimeHistogram), making report memory independent
  /// of crawl length. Changes serialized bytes, so it IS part of the
  /// journal fingerprint. `from_env()` reads H2R_HIST_BUDGET.
  std::uint32_t hist_budget = 0;
  /// Path to write the study's merged metric snapshot to (pretty JSON,
  /// obs::to_json schema); empty = don't write one. Only DETERMINISTIC
  /// metrics are exported — the snapshot is bit-identical for every
  /// thread count, which CI diffs byte-for-byte. Not part of the journal
  /// fingerprint: where the snapshot goes cannot change what is measured.
  /// `from_env()` reads H2R_METRICS.
  std::string metrics_path;

  /// Reads H2R_HAR_SITES / H2R_ALEXA_SITES / H2R_HAR_FIRST_RANK /
  /// H2R_SEED / H2R_THREADS / H2R_FAULT_* / H2R_SITE_DEADLINE_MS /
  /// H2R_JOURNAL / H2R_RESUME / H2R_HIST_BUDGET / H2R_METRICS through
  /// util/env.hpp. Unset values keep the defaults; a malformed or
  /// out-of-range value, or an H2R_* variable with no row in
  /// util::kKnobs, throws util::ConfigError.
  static StudyConfig from_env();
};

struct StudyResults {
  StudyConfig config;

  // HTTP-Archive-like crawl (HAR path).
  core::AggregateReport har_endless;
  core::AggregateReport har_immediate;
  browser::CrawlSummary har_summary;

  // Alexa-like crawl (NetLog path).
  core::AggregateReport alexa_exact;
  core::AggregateReport alexa_endless;
  browser::CrawlSummary alexa_summary;

  // Patched crawl (privacy mode ignored).
  core::AggregateReport nofetch_exact;
  browser::CrawlSummary nofetch_summary;

  // Intersection of the two site sets (Tables 7-10).
  core::AggregateReport overlap_har_endless;
  core::AggregateReport overlap_alexa_endless;
  std::uint64_t overlap_sites = 0;

  /// Journal telemetry (zero when journaling is off): bytes committed and
  /// fsync calls issued by this run, for the CLI / bench banners.
  std::uint64_t journal_bytes = 0;
  std::uint64_t journal_fsyncs = 0;
  /// Work recovered from the journal on resume instead of re-crawled.
  std::uint64_t resumed_chunks = 0;
  std::uint64_t resumed_sites = 0;

  /// Metric snapshot merged over the three campaigns' per-worker shards
  /// (dns.* / net.* / tls.* / h2.* / browser.* / crawl.* counters and
  /// histograms). The deterministic domain is bit-identical for every
  /// thread count; journal / scheduling telemetry rides along in the
  /// diagnostic domain, excluded from obs::to_json and operator==.
  /// Metrics cover the sites actually crawled THIS run — on resume,
  /// journal-recovered chunks contribute study.resumed_* diagnostics,
  /// not replayed per-site metrics.
  obs::Metrics metrics;

  /// Fault/failure ledger summed over the three campaigns.
  fault::FailureSummary total_failures() const {
    fault::FailureSummary total;
    total.add(har_summary.failures);
    total.add(alexa_summary.failures);
    total.add(nofetch_summary.failures);
    return total;
  }
};

/// Runs the full study. Expensive (three crawls); bench binaries call it
/// once and print their tables from the result. Throws std::runtime_error
/// when resume is requested but the journal is unreadable, was written by
/// a different config (fingerprint mismatch), or holds overlapping /
/// out-of-range chunks.
StudyResults run_study(const StudyConfig& config);

}  // namespace h2r::experiments

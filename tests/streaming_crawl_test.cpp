// Differential scale suite for the streaming study engine.
//
// The contract under test: a study (per-rank site regeneration in every
// crawl worker, chunk-windowed report folding) lands on the pinned
// reference bytes — same report JSON, same summaries, same metric
// snapshot — at every thread count and fault rate, survives a
// mid-campaign crash/resume, spills without changing a byte, and keeps
// the process's peak RSS under an externally imposed budget.
//
// Identity is asserted on serialized bytes, not just operator==: the
// full-fidelity report codec and the deterministic metric snapshot are
// what CI diffs byte-for-byte, so that is what this suite pins (see
// output_digest.hpp for the reference digests).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "core/classify.hpp"
#include "core/report_json.hpp"
#include "experiments/study.hpp"
#include "journal/journal.hpp"
#include "journal/spill.hpp"
#include "obs/metrics.hpp"
#include "obs/process.hpp"
#include "output_digest.hpp"
#include "util/env.hpp"
#include "util/rng.hpp"

namespace h2r::experiments {
namespace {

using testing::golden_study_config;
using testing::sha256_hex;
using testing::study_metric_bytes;
using testing::study_report_bytes;
using testing::study_summary_bytes;

/// Measurement identity against the reference digests: summaries and
/// full-fidelity report bytes. This is the part that survives a resume
/// (metrics deliberately cover only the sites crawled THIS run — see
/// StudyResults::metrics).
void expect_pinned_measurements(const StudyResults& got,
                                const testing::StudyDigests& want) {
  EXPECT_EQ(sha256_hex(study_report_bytes(got)), want.reports);
  EXPECT_EQ(sha256_hex(study_summary_bytes(got)), want.summaries);
}

/// Full identity, metric snapshot included — what every uninterrupted
/// run owes the reference.
void expect_pinned(const StudyResults& got,
                   const testing::StudyDigests& want) {
  expect_pinned_measurements(got, want);
  EXPECT_EQ(sha256_hex(study_metric_bytes(got)), want.metrics);
}

/// The tentpole differential: every thread count reproduces the
/// reference bytes of its fault rate.
void threads_match_reference(double fault_rate,
                             const testing::StudyDigests& want) {
  for (const unsigned threads : {1u, 2u, 7u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    expect_pinned(run_study(golden_study_config(threads, fault_rate)), want);
  }
}

TEST(StreamingCrawl, FaultFreeStreamingIsBitIdenticalAcrossThreadCounts) {
  threads_match_reference(0.0, testing::kStudyFaultFree);
}

TEST(StreamingCrawl, FaultyStreamingIsBitIdenticalAcrossThreadCounts) {
  threads_match_reference(0.25, testing::kStudyFaulty);
}

TEST(StreamingCrawl, SpillingStudyIsBitIdenticalToResidentStreaming) {
  // The study-level spill differential: ReportFold spill files must
  // reproduce the resident fold's bytes exactly — the spill file is a
  // framed detour, not a different aggregation.
  for (const unsigned threads : {1u, 3u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    StudyConfig config = golden_study_config(threads, 0.0);
    config.spill_dir = ::testing::TempDir();
    const StudyResults spilled = run_study(config);
    expect_pinned(spilled, testing::kStudyFaultFree);
    // The spill actually happened: every fold wrote frames.
    EXPECT_GT(spilled.spill_bytes, 0u);
  }
}

TEST(StreamingCrawl, HistogramBudgetIsModeIndependent) {
  // A budgeted run coarsens its sketches identically at every thread
  // count.
  for (const unsigned threads : {1u, 2u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    StudyConfig config = golden_study_config(threads, 0.0);
    config.hist_budget = 8;
    expect_pinned(run_study(config), testing::kStudyBudget8);
  }
}

// ------------------------------------------------- crash/resume parity

std::string slurp(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return buffer.str();
}

void dump(const std::string& path, const std::string& data) {
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  file.write(data.data(), static_cast<std::streamsize>(data.size()));
}

std::uint32_t frame_length(const std::string& data, std::size_t offset) {
  return static_cast<std::uint32_t>(
             static_cast<unsigned char>(data[offset])) |
         (static_cast<std::uint32_t>(
              static_cast<unsigned char>(data[offset + 1]))
          << 8) |
         (static_cast<std::uint32_t>(
              static_cast<unsigned char>(data[offset + 2]))
          << 16) |
         (static_cast<std::uint32_t>(
              static_cast<unsigned char>(data[offset + 3]))
          << 24);
}

std::size_t offset_after(const std::string& data, std::size_t entries) {
  std::size_t offset = 0;
  for (std::size_t frame = 0; frame < entries + 1; ++frame) {
    offset += 8 + frame_length(data, offset);
  }
  return offset;
}

TEST(StreamingCrawl, StreamingStudySurvivesMidCampaignCrashAndResume) {
  // Same kill-and-resume drill as journal_resume_test, checked against
  // the reference digests: the journaled windows a run commits must
  // recover into the bytes an uninterrupted run produces.
  const std::string path =
      std::string(::testing::TempDir()) + "/streaming_resume.journal";
  StudyConfig journaled_config = golden_study_config(3, 0.0);
  journaled_config.journal_path = path;
  const StudyResults journaled = run_study(journaled_config);
  expect_pinned(journaled, testing::kStudyFaultFree);
  EXPECT_GT(journaled.journal_bytes, 0u);

  auto contents = journal::read_journal(path);
  ASSERT_TRUE(contents) << contents.error().message;
  ASSERT_GE(contents->entries.size(), 4u)
      << "config too small to test a mid-run crash";

  // "Crash" after half the committed chunks, tearing the next frame.
  const std::size_t keep = contents->entries.size() / 2;
  const std::string data = slurp(path);
  std::size_t cut = offset_after(data, keep);
  const std::size_t next_end = cut + 8 + frame_length(data, cut);
  cut = (cut + next_end) / 2;
  dump(path, data.substr(0, cut));

  StudyConfig resume_config = golden_study_config(5, 0.0);
  resume_config.journal_path = path;
  resume_config.resume = true;
  const StudyResults resumed = run_study(resume_config);
  expect_pinned_measurements(resumed, testing::kStudyFaultFree);
  EXPECT_EQ(resumed.resumed_chunks, keep);
  EXPECT_GT(resumed.resumed_sites, 0u);
}

// ------------------------------------------------ ReportFold spill path

net::IpAddress ip(const std::string& s) {
  return net::IpAddress::parse(s).value();
}

/// Synthetic site in the report_merge_test mold: enough connection
/// variety to populate cause tallies, origin tables and histograms.
core::SiteObservation random_site(util::Rng& rng, std::size_t index) {
  static const char* kDomains[] = {"cdn.ex", "ads.ex",  "img.ex",
                                   "api.ex", "tags.ex", "sso.ex"};
  core::SiteObservation site;
  site.site_url = "https://site-" + std::to_string(index) + ".test";
  const std::size_t conns = rng.uniform(1, 5);
  for (std::size_t c = 0; c < conns; ++c) {
    core::ConnectionRecord rec;
    rec.id = c + 1;
    rec.endpoint =
        net::Endpoint{ip("10.0.0." + std::to_string(rng.uniform(1, 4))), 443};
    rec.initial_domain = kDomains[rng.index(6)];
    rec.san_dns_names = {"*.ex", rec.initial_domain};
    rec.issuer_organization =
        std::string("CA-") + std::string(1, rec.initial_domain[0]);
    rec.has_certificate = true;
    rec.opened_at = static_cast<util::SimTime>(rng.uniform(0, 4000));
    if (rng.chance(0.3)) {
      rec.closed_at = rec.opened_at +
                      static_cast<util::SimTime>(rng.uniform(100, 200000));
    }
    core::RequestRecord req;
    req.started_at = rec.opened_at;
    req.finished_at = rec.opened_at + 50;
    req.domain = rec.initial_domain;
    rec.requests.push_back(req);
    site.connections.push_back(std::move(rec));
  }
  return site;
}

journal::ChunkCheckpoint random_window(util::Rng& rng, std::size_t index) {
  journal::ChunkCheckpoint window;
  window.campaign = "alexa";
  const std::size_t sites = rng.uniform(2, 6);
  window.ranges.emplace_back(index * 10, sites);
  core::Aggregator agg;
  for (std::size_t s = 0; s < sites; ++s) {
    const core::SiteObservation site = random_site(rng, index * 10 + s);
    agg.add_site(site,
                 core::classify_site(site, {core::DurationModel::kEndless}));
    ++window.summary.sites_visited;
    window.summary.connections_opened += site.connections.size();
  }
  window.reports.emplace_back("exact", agg.report());
  window.overlap_sites = rng.uniform(0, 3);
  return window;
}

TEST(ReportFold, SpillingFoldReplaysToResidentTotals) {
  // The spill file round-trips windows through the journal codec; because
  // merges are commutative and the codec is full fidelity, the replayed
  // totals must equal a resident fold of the same windows — in any
  // arrival order.
  util::Rng rng{0xF01D};
  std::vector<journal::ChunkCheckpoint> windows;
  for (std::size_t i = 0; i < 8; ++i) windows.push_back(random_window(rng, i));

  journal::ReportFold resident;
  for (const auto& window : windows) {
    auto folded = resident.fold(window);
    ASSERT_TRUE(folded);
  }

  const std::string path =
      std::string(::testing::TempDir()) + "/report_fold.spill";
  auto spilling = journal::ReportFold::spilling(path);
  ASSERT_TRUE(spilling) << spilling.error().message;
  std::vector<std::size_t> order(windows.size());
  std::iota(order.begin(), order.end(), 0);
  rng.shuffle(order);
  for (const std::size_t i : order) {
    auto folded = (*spilling)->fold(windows[i]);
    ASSERT_TRUE(folded) << folded.error().message;
  }
  EXPECT_EQ((*spilling)->windows(), windows.size());

  auto resident_totals = resident.finish();
  ASSERT_TRUE(resident_totals);
  auto spilled_totals = (*spilling)->finish();
  ASSERT_TRUE(spilled_totals) << spilled_totals.error().message;

  EXPECT_EQ(spilled_totals->windows, resident_totals->windows);
  EXPECT_EQ(spilled_totals->overlap_sites, resident_totals->overlap_sites);
  EXPECT_TRUE(spilled_totals->summary == resident_totals->summary);
  ASSERT_EQ(spilled_totals->reports.size(), resident_totals->reports.size());
  for (const auto& [name, report] : resident_totals->reports) {
    ASSERT_TRUE(spilled_totals->reports.count(name));
    EXPECT_EQ(spilled_totals->reports.at(name), report) << name;
  }
  EXPECT_GT(spilled_totals->spill_bytes, 0u);
}

TEST(ReportFold, TornSpillTailIsAHardError) {
  const std::string path =
      std::string(::testing::TempDir()) + "/report_fold_torn.spill";
  auto fold = journal::ReportFold::spilling(path);
  ASSERT_TRUE(fold) << fold.error().message;
  util::Rng rng{0xBAD};
  for (std::size_t i = 0; i < 3; ++i) {
    auto folded = (*fold)->fold(random_window(rng, i));
    ASSERT_TRUE(folded);
  }
  // Tear the last frame in half before finish() replays the file. A torn
  // SPILL tail means this process lost a window — unlike the crash
  // journal, that is corruption, not recoverable progress.
  const std::string data = slurp(path);
  dump(path, data.substr(0, offset_after(data, 2) + 4));
  auto totals = (*fold)->finish();
  ASSERT_FALSE(totals);
  EXPECT_NE(totals.error().message.find("torn"), std::string::npos)
      << totals.error().message;
}

// --------------------------------------------------- peak-RSS budgeting

TEST(StreamingScale, PeakRssStaysWithinBudget) {
  // Opt-in memory gate (the CI scale job sets the env): a streaming
  // study over H2R_SCALE_SITES sites must keep the process's VmHWM under
  // H2R_RSS_BUDGET_MB. Run it in isolation — the high-water mark is
  // process-wide, so other tests in the same process inflate it.
  const std::uint64_t budget_mb = util::env_u64("H2R_RSS_BUDGET_MB", 0, 1);
  if (budget_mb == 0) {
    GTEST_SKIP() << "set H2R_RSS_BUDGET_MB (and optionally H2R_SCALE_SITES) "
                    "to enable the memory gate";
  }
  const std::size_t scale_sites = static_cast<std::size_t>(
      util::env_u64("H2R_SCALE_SITES", 100'000, 1));

  StudyConfig config;
  config.alexa_sites = scale_sites;
  config.har_sites = std::max<std::size_t>(scale_sites / 10, 1);
  config.har_first_rank = scale_sites / 2;
  config.run_har = false;       // one campaign is enough to hit the scale
  config.run_no_fetch = false;
  config.seed = 42;
  config.threads = 4;
  config.hist_budget = 64;
  const StudyResults results = run_study(config);
  EXPECT_EQ(results.alexa_summary.sites_visited +
                results.alexa_summary.sites_unreachable,
            scale_sites);

  const std::uint64_t rss_kib = obs::peak_rss_kib();
  if (rss_kib == 0) GTEST_SKIP() << "peak RSS unavailable on this platform";
  EXPECT_LE(rss_kib, budget_mb * 1024)
      << "streaming study peaked at " << rss_kib / 1024 << " MiB, budget is "
      << budget_mb << " MiB";
}

}  // namespace
}  // namespace h2r::experiments

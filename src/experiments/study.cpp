#include "experiments/study.hpp"

#include <algorithm>
#include <vector>

#include "journal/campaign.hpp"
#include "journal/journal.hpp"
#include "obs/process.hpp"
#include "util/env.hpp"
#include "web/catalog.hpp"
#include "web/ecosystem.hpp"
#include "web/sitegen.hpp"

namespace h2r::experiments {

namespace {

/// Deterministic digest of the universe: sampled site URLs
/// (plus unreachability markers) pin the seed AND the site generator
/// version, so a resume against a journal from a different world fails
/// the fingerprint check instead of silently mixing observations.
std::uint32_t universe_digest(const web::SiteUniverse& universe,
                              const StudyConfig& config) {
  std::string sample;
  auto add_rank = [&](std::size_t rank) {
    if (universe.unreachable(rank)) {
      sample += '-';
    } else {
      // Pure regeneration: a million-site study samples its universe
      // without holding any of it.
      sample += universe.generate_site(rank).url;
    }
    sample += '\n';
  };
  auto add_span = [&](std::size_t first, std::size_t count) {
    if (count == 0) return;
    const std::size_t stride = std::max<std::size_t>(1, count / 32);
    for (std::size_t i = 0; i < count; i += stride) add_rank(first + i);
    add_rank(first + count - 1);
  };
  add_span(0, config.alexa_sites);
  if (config.run_har) add_span(config.har_first_rank, config.har_sites);
  return journal::crc32(sample);
}

/// The config fingerprint the journal header pins. `threads` is
/// deliberately absent: the crawl's determinism contract makes thread
/// count irrelevant to results, so a journal written at -j32 resumes
/// cleanly at -j1. Everything that CAN change observations is here.
json::Value config_fingerprint(const StudyConfig& config,
                               std::uint32_t universe_crc) {
  json::Object fp;
  fp.set("har_sites", static_cast<std::int64_t>(config.har_sites));
  fp.set("alexa_sites", static_cast<std::int64_t>(config.alexa_sites));
  fp.set("har_first_rank",
         static_cast<std::int64_t>(config.har_first_rank));
  fp.set("seed", static_cast<std::int64_t>(config.seed));
  fp.set("run_no_fetch", config.run_no_fetch);
  fp.set("run_har", config.run_har);
  fp.set("faults", config.faults.signature());
  fp.set("site_deadline_ms", static_cast<std::int64_t>(config.site_deadline));
  // The histogram budget changes serialized report bytes, so resuming a
  // journal under a different budget would mix sketch resolutions.
  fp.set("hist_budget", static_cast<std::int64_t>(config.hist_budget));
  fp.set("universe_crc", static_cast<std::int64_t>(universe_crc));
  return json::Value{std::move(fp)};
}

/// A campaign spec and where its outputs land in StudyResults.
struct BoundCampaign {
  journal::CampaignSpec spec;
  browser::CrawlSummary* summary = nullptr;
  std::vector<core::AggregateReport*> reports;  // parallel to spec.reports
};

}  // namespace

StudyConfig StudyConfig::from_env() {
  util::reject_unknown_env();
  StudyConfig config;
  config.har_sites = util::env("H2R_HAR_SITES", config.har_sites);
  config.alexa_sites = util::env("H2R_ALEXA_SITES", config.alexa_sites);
  config.har_first_rank =
      util::env("H2R_HAR_FIRST_RANK", config.har_first_rank);
  config.seed = util::env("H2R_SEED", config.seed);
  config.threads = util::env_threads(config.threads);
  config.faults = fault::FaultConfig::from_env();
  config.site_deadline =
      util::env("H2R_SITE_DEADLINE_MS", config.site_deadline);
  config.journal_path = util::env("H2R_JOURNAL", std::string{});
  config.resume = util::env("H2R_RESUME", false);
  config.hist_budget = util::env("H2R_HIST_BUDGET", config.hist_budget);
  config.metrics_path = util::env("H2R_METRICS", std::string{});
  return config;
}

StudyResults run_study(const StudyConfig& config) {
  StudyResults results;
  results.config = config;

  web::Ecosystem eco{config.seed};
  web::ServiceCatalog catalog{eco, config.seed};
  web::UniverseConfig universe_config = web::UniverseConfig::defaults();
  universe_config.seed = config.seed;
  universe_config.top_rank = std::max<std::size_t>(config.alexa_sites / 2, 1);
  universe_config.tail_rank =
      std::max<std::size_t>(config.har_first_rank + config.har_sites, 2);
  web::SiteUniverse universe{eco, catalog, universe_config};

  const core::Policy exact{core::DurationModel::kExact};
  const core::Policy endless{core::DurationModel::kEndless};
  const core::Policy immediate{core::DurationModel::kImmediate};
  // Ranks present in both populations. The paper's overlap tables use
  // the endless model on both datasets ("HAR Overlap Endless" / "Alexa
  // Overlap Endless").
  const std::size_t overlap_begin = config.har_first_rank;
  const std::size_t overlap_end = std::min(
      config.alexa_sites, config.har_first_rank + config.har_sites);

  // Alexa-like crawl: the university resolver, NetLog path, Fetch
  // credentials honored. The other campaigns vary it.
  browser::CrawlOptions alexa_crawl;
  alexa_crawl.browser.follow_fetch_credentials = true;
  alexa_crawl.browser.vantage_region = "eu";
  alexa_crawl.browser.faults = config.faults;
  alexa_crawl.browser.site_deadline = config.site_deadline;
  alexa_crawl.vantage_index = 0;
  alexa_crawl.seed = config.seed + 1;
  alexa_crawl.threads = config.threads;
  alexa_crawl.start_time = util::days(1);

  std::vector<BoundCampaign> campaigns;
  campaigns.reserve(3);
  BoundCampaign& alexa = campaigns.emplace_back();
  alexa.spec.name = "alexa";
  alexa.spec.crawl = alexa_crawl;
  alexa.spec.count = config.alexa_sites;
  alexa.spec.reports = {{"exact", exact},
                        {"endless", endless},
                        {"overlap", endless, /*overlap_only=*/true}};
  alexa.spec.overlap_begin = overlap_begin;
  alexa.spec.overlap_end = overlap_end;
  alexa.summary = &results.alexa_summary;
  alexa.reports = {&results.alexa_exact, &results.alexa_endless,
                   &results.overlap_alexa_endless};

  // The same crawl with the Fetch credentials flag ignored (the paper's
  // patched Chromium), measured days later: different LB slots.
  if (config.run_no_fetch) {
    BoundCampaign& nofetch = campaigns.emplace_back();
    nofetch.spec.name = "nofetch";
    nofetch.spec.crawl = alexa_crawl;
    nofetch.spec.crawl.browser.follow_fetch_credentials = false;
    nofetch.spec.crawl.seed = config.seed + 2;
    nofetch.spec.crawl.start_time = util::days(4);
    nofetch.spec.count = config.alexa_sites;
    nofetch.spec.reports = {{"exact", exact}};
    nofetch.summary = &results.nofetch_summary;
    nofetch.reports = {&results.nofetch_exact};
  }

  // HTTP-Archive-like crawl: the US vantage point, HAR export + filtered
  // re-import.
  if (config.run_har) {
    BoundCampaign& har = campaigns.emplace_back();
    har.spec.name = "har";
    har.spec.crawl = alexa_crawl;
    har.spec.crawl.browser.vantage_region = "us";
    har.spec.crawl.vantage_index = 12;
    har.spec.crawl.seed = config.seed + 3;
    har.spec.crawl.start_time = util::days(8);
    har.spec.crawl.har_path = true;
    har.spec.first_rank = config.har_first_rank;
    har.spec.count = config.har_sites;
    har.spec.source = journal::ObservationSource::kHar;
    har.spec.reports = {{"endless", endless},
                        {"immediate", immediate},
                        {"overlap", endless, /*overlap_only=*/true}};
    har.spec.overlap_begin = overlap_begin;
    har.spec.overlap_end = overlap_end;
    har.spec.count_overlap_sites = true;
    har.summary = &results.har_summary;
    har.reports = {&results.har_endless, &results.har_immediate,
                   &results.overlap_har_endless};
  }

  journal::CampaignRunOptions run;
  run.as_db = &eco.as_database();
  run.hist_budget = config.hist_budget;
  run.journal_path = config.journal_path;
  run.resume = config.resume;
  if (!config.journal_path.empty()) {
    run.fingerprint =
        config_fingerprint(config, universe_digest(universe, config));
  }
  std::vector<journal::CampaignSpec> specs;
  for (const BoundCampaign& campaign : campaigns) {
    specs.push_back(campaign.spec);
  }
  journal::RunOutcome outcome = journal::run_campaigns(universe, specs, run);

  std::uint64_t report_windows = 0;
  for (std::size_t i = 0; i < campaigns.size(); ++i) {
    const BoundCampaign& campaign = campaigns[i];
    journal::CampaignOutcome& out = outcome.campaigns[i];
    journal::FoldTotals& totals = out.totals;
    *campaign.summary = std::move(totals.summary);
    for (std::size_t s = 0; s < campaign.reports.size(); ++s) {
      campaign.reports[s]->merge(totals.reports[campaign.spec.reports[s].name]);
    }
    results.overlap_sites += totals.overlap_sites;
    report_windows += totals.windows;
    results.resumed_chunks += out.resumed_chunks;
    results.resumed_sites += out.resumed_sites;
    // Commutative, so the snapshot is campaign-order independent.
    results.metrics.merge(out.metrics);
  }
  results.journal_bytes = outcome.journal_bytes;
  results.journal_fsyncs = outcome.journal_fsyncs;

  // Journal / resume / window telemetry depends on chunk
  // scheduling and platform I/O, and so does the process's memory
  // high-water mark — diagnostic domain only, invisible to the exported
  // snapshot.
  if (!config.journal_path.empty()) {
    results.metrics.add_diag("journal.bytes", results.journal_bytes);
    results.metrics.add_diag("journal.fsyncs", results.journal_fsyncs);
  }
  if (results.resumed_chunks > 0) {
    results.metrics.add_diag("study.resumed_chunks", results.resumed_chunks);
    results.metrics.add_diag("study.resumed_sites", results.resumed_sites);
  }
  if (report_windows > 0) {
    results.metrics.add_diag("study.report_windows", report_windows);
  }
  if (const std::uint64_t rss = obs::peak_rss_kib(); rss > 0) {
    results.metrics.add_diag("process.peak_rss_kib", rss);
  }

  return results;
}

}  // namespace h2r::experiments

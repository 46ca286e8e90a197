#include "optimize/optimize.hpp"

#include <algorithm>
#include <cstdio>
#include <thread>
#include <utility>

#include "core/report_json.hpp"
#include "journal/campaign.hpp"
#include "util/env.hpp"
#include "web/catalog.hpp"
#include "web/ecosystem.hpp"
#include "web/sitegen.hpp"

namespace h2r::optimize {

namespace {

/// Every subset of the enabled knobs, mask-ascending (baseline first).
std::vector<std::uint8_t> policy_points(std::uint8_t knob_mask) {
  std::vector<std::uint8_t> points;
  for (std::uint8_t mask = 0; mask <= core::kAllPolicyKnobs; ++mask) {
    if ((mask & ~knob_mask) == 0) points.push_back(mask);
  }
  return points;
}

std::string percent(std::uint64_t part, std::uint64_t whole) {
  char buffer[32];
  const double pct =
      whole == 0 ? 0.0 : 100.0 * static_cast<double>(part) /
                             static_cast<double>(whole);
  std::snprintf(buffer, sizeof(buffer), "%.1f%%", pct);
  return buffer;
}

}  // namespace

OptimizeConfig OptimizeConfig::from_env() {
  OptimizeConfig config;
  config.sites = static_cast<std::size_t>(
      util::env_u64("H2R_ALEXA_SITES", config.sites, 1));
  config.seed = util::env_u64("H2R_SEED", config.seed, 1);
  const unsigned hardware =
      std::max(1u, std::thread::hardware_concurrency());
  config.threads = std::min(
      std::max(1u, static_cast<unsigned>(
                       util::env_u64("H2R_THREADS", config.threads, 1))),
      hardware);
  config.spill_dir = util::env_string("H2R_SPILL");
  config.hist_budget = static_cast<std::uint32_t>(std::min<std::uint64_t>(
      util::env_u64("H2R_HIST_BUDGET", config.hist_budget, 1),
      0xFFFFFFFFull));
  config.faults = fault::FaultConfig::from_env();
  // H2R_POLICY_DURATION picks the duration every point inherits; any
  // H2R_POLICY_* knob flags RESTRICT the sweep to subsets of those knobs.
  const core::Policy env_policy = core::Policy::from_env();
  config.base.duration = env_policy.duration;
  config.knob_mask =
      env_policy.mask() != 0 ? env_policy.mask() : core::kAllPolicyKnobs;
  return config;
}

OptimizeResults run_optimize(const OptimizeConfig& config) {
  OptimizeResults results;
  results.config = config;

  const std::vector<std::uint8_t> points = policy_points(config.knob_mask);

  web::Ecosystem eco{config.seed};
  web::ServiceCatalog catalog{eco, config.seed};
  web::UniverseConfig universe_config = web::UniverseConfig::defaults();
  universe_config.seed = config.seed;
  universe_config.top_rank = std::max<std::size_t>(config.sites / 2, 1);
  universe_config.tail_rank = std::max<std::size_t>(config.sites, 2);
  web::SiteUniverse universe{eco, catalog, universe_config};

  // Crawl options identical to the study's Alexa campaign: the optimizer
  // replays the SAME universe crawl the study measures.
  journal::CampaignSpec spec;
  spec.name = "optimize";
  spec.crawl.browser.follow_fetch_credentials = true;
  spec.crawl.browser.vantage_region = "eu";
  spec.crawl.browser.faults = config.faults;
  spec.crawl.vantage_index = 0;
  spec.crawl.seed = config.seed + 1;
  spec.crawl.threads = config.threads;
  spec.crawl.start_time = util::days(1);
  spec.count = config.sites;
  // One prepare() per site, one columnar sweep per distinct policy: the
  // baseline report, then every point scored against it (the mask-0
  // point is the baseline itself).
  spec.reports = {{"baseline", config.base}};
  for (const std::uint8_t mask : points) {
    const core::Policy point = core::Policy::with_mask(mask, config.base);
    spec.tallies.push_back({point.label(), mask == 0 ? config.base : point});
  }

  journal::CampaignRunOptions run;
  run.as_db = &eco.as_database();
  run.hist_budget = config.hist_budget;
  run.spill_dir = config.spill_dir;
  journal::CampaignOutcome outcome =
      std::move(journal::run_campaigns(universe, {spec}, run).campaigns[0]);
  journal::FoldTotals& totals = outcome.totals;

  results.summary = std::move(totals.summary);
  results.baseline.merge(totals.reports["baseline"]);
  results.metrics = std::move(outcome.metrics);
  results.spill_bytes = totals.spill_bytes;
  results.ranked.reserve(points.size());
  for (std::size_t p = 0; p < points.size(); ++p) {
    results.ranked.push_back(
        PolicyOutcome{core::Policy::with_mask(points[p], config.base),
                      std::move(totals.tallies[spec.tallies[p].name])});
  }
  std::sort(results.ranked.begin(), results.ranked.end(),
            [](const PolicyOutcome& a, const PolicyOutcome& b) {
              if (a.tally.recovered != b.tally.recovered) {
                return a.tally.recovered > b.tally.recovered;
              }
              if (a.policy.knob_count() != b.policy.knob_count()) {
                return a.policy.knob_count() < b.policy.knob_count();
              }
              return a.policy.mask() < b.policy.mask();
            });
  return results;
}

json::Value to_json(const OptimizeResults& results) {
  json::Object root;
  // `threads` is deliberately absent: the document must be byte-identical
  // across thread counts (CI diffs it).
  json::Object config;
  config.set("sites", static_cast<std::int64_t>(results.config.sites));
  config.set("seed", static_cast<std::int64_t>(results.config.seed));
  config.set("duration", core::to_string(results.config.base.duration));
  config.set("knob_mask",
             static_cast<std::int64_t>(results.config.knob_mask));
  config.set("faults", results.config.faults.signature());
  root.set("config", json::Value{std::move(config)});

  json::Object summary;
  summary.set("sites_visited",
              static_cast<std::int64_t>(results.summary.sites_visited));
  summary.set("sites_unreachable",
              static_cast<std::int64_t>(results.summary.sites_unreachable));
  summary.set("connections_opened",
              static_cast<std::int64_t>(results.summary.connections_opened));
  root.set("summary", json::Value{std::move(summary)});

  json::Array ranking;
  std::int64_t rank = 1;
  for (const PolicyOutcome& outcome : results.ranked) {
    json::Object entry;
    entry.set("rank", rank++);
    entry.set("policy", outcome.policy.label());
    entry.set("mask", static_cast<std::int64_t>(outcome.policy.mask()));
    json::Array knobs;
    for (std::size_t k = 0; k < core::kPolicyKnobCount; ++k) {
      const auto bit = static_cast<core::PolicyKnob>(1u << k);
      if ((outcome.policy.mask() & bit) != 0) {
        knobs.push_back(json::Value{std::string(core::to_string(bit))});
      }
    }
    entry.set("knobs", json::Value{std::move(knobs)});
    entry.set("tally", core::to_json(outcome.tally));
    ranking.push_back(json::Value{std::move(entry)});
  }
  root.set("ranking", json::Value{std::move(ranking)});
  return json::Value{std::move(root)};
}

std::string render(const OptimizeResults& results) {
  std::string out = "counterfactual reuse maximizer — " +
                    std::to_string(results.config.sites) + " sites, seed " +
                    std::to_string(results.config.seed) + ", " +
                    core::to_string(results.config.base.duration) +
                    " durations\n";
  const core::PolicyTally* baseline = nullptr;
  for (const PolicyOutcome& outcome : results.ranked) {
    if (outcome.policy.mask() == 0) baseline = &outcome.tally;
  }
  if (baseline != nullptr) {
    out += "crawled " + std::to_string(results.summary.sites_visited) +
           " sites (" + std::to_string(results.summary.sites_unreachable) +
           " unreachable): " +
           std::to_string(baseline->baseline_connections) +
           " connections, " + std::to_string(baseline->baseline_redundant) +
           " redundant (" +
           percent(baseline->baseline_redundant,
                   baseline->baseline_connections) +
           ")\n";
  }
  out += "\nrank  recovered  redundant-left  policy\n";
  int rank = 1;
  for (const PolicyOutcome& outcome : results.ranked) {
    char line[128];
    std::snprintf(line, sizeof(line), "%4d  %9llu  %14llu  ", rank++,
                  static_cast<unsigned long long>(outcome.tally.recovered),
                  static_cast<unsigned long long>(
                      outcome.tally.remaining_redundant));
    out += line;
    out += outcome.policy.label();
    if (outcome.tally.baseline_redundant > 0 && outcome.tally.recovered > 0) {
      out += "  (" + percent(outcome.tally.recovered,
                             outcome.tally.baseline_redundant) +
             " of redundant)";
    }
    out += "\n";
    // Who benefits: operators credited with the recovered connections,
    // biggest first (name-ascending on ties), top three.
    std::vector<std::pair<std::string, std::uint64_t>> operators(
        outcome.tally.recovered_by_operator.begin(),
        outcome.tally.recovered_by_operator.end());
    std::sort(operators.begin(), operators.end(),
              [](const auto& a, const auto& b) {
                if (a.second != b.second) return a.second > b.second;
                return a.first < b.first;
              });
    if (!operators.empty()) {
      out += "                                 operators:";
      const std::size_t shown = std::min<std::size_t>(operators.size(), 3);
      for (std::size_t i = 0; i < shown; ++i) {
        out += " " + operators[i].first + "(" +
               std::to_string(operators[i].second) + ")";
      }
      if (operators.size() > shown) {
        out += " +" + std::to_string(operators.size() - shown) + " more";
      }
      out += "\n";
    }
  }
  return out;
}

}  // namespace h2r::optimize

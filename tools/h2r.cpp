// h2r — the command-line front end of the library.
//
//   h2r audit <page.har> [--json]  audit a HAR file for redundant conns
//   h2r study                     run the full two-population study
//   h2r crawl <config.json> <landing-domain> [resources...]
//                                 build an ecosystem from JSON, load a page
//                                 against it and audit the result
//   h2r replay [--proxy shared|worker|both]
//                                 replay crawl traffic through the
//                                 edge-proxy upstream pool architectures
//   h2r optimize [--sites N]      rank counterfactual policy interventions
//                                 (ORIGIN frames, DNS sync, cert merges,
//                                 credential relaxation) by measured
//                                 connections recovered — no re-crawl
//   h2r dns-overlap               run the Figure 3 resolver-overlap study
//   h2r snapshot <out.json> [N]   crawl N universe sites, save the exact
//                                 connection records as a dataset
//   h2r analyze <dataset.json>    re-analyze a saved dataset (no crawl)
//
// Everything the subcommands do is plain library API — the tool exists so
// operators can audit a deployment without writing C++.
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "browser/crawl.hpp"
#include "core/advisor.hpp"
#include "core/observation_json.hpp"
#include "core/report_json.hpp"
#include "core/dns_study.hpp"
#include "experiments/study.hpp"
#include "fault/fault.hpp"
#include "journal/checkpoint.hpp"
#include "har/import.hpp"
#include "obs/metrics.hpp"
#include "optimize/optimize.hpp"
#include "pool/pool.hpp"
#include "pool/replay.hpp"
#include "stats/table.hpp"
#include "util/env.hpp"
#include "util/format.hpp"
#include "web/catalog.hpp"
#include "web/config.hpp"
#include "web/sitegen.hpp"

using namespace h2r;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  h2r audit <page.har> [--json]\n"
               "  h2r study [--journal <path>] [--resume] [--json <out>]\n"
               "            [--metrics <out>] [--hist-budget <n>]\n"
               "  h2r replay [--proxy shared|worker|both] [--sites N]\n"
               "            [--json <out>] [--metrics <out>]\n"
               "  h2r optimize [--sites N] [--json <out>]\n"
               "  h2r crawl <config.json> <landing-domain> [resource-domain...]\n"
               "  h2r dns-overlap <config.json> <domain-a> <domain-b>\n"
               "  h2r snapshot <out.json> [site-count]\n"
               "  h2r analyze <dataset.json>\n"
               "\nenvironment (README's knob table; a malformed, out-of-range "
               "or unknown H2R_* value exits 2):");
  for (std::size_t i = 0; i < std::size(util::kKnobs); ++i) {
    const std::string_view name = util::kKnobs[i].name;
    std::fprintf(stderr, "%s%.*s", i % 3 == 0 ? "\n  " : " / ",
                 static_cast<int>(name.size()), name.data());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

/// Writes `value` as pretty JSON to `path`; false, after naming the path
/// on stderr, when the file cannot be written.
bool write_json(const std::string& path, const json::Value& value) {
  const auto written = json::write_file(path, value, /*pretty=*/true);
  if (!written) std::fprintf(stderr, "%s\n", written.error().message.c_str());
  return written.has_value();
}

util::Expected<std::string> read_file(const char* path) {
  std::ifstream file(path);
  if (!file) {
    return util::unexpected(util::Error{std::string("cannot open ") + path});
  }
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return buffer.str();
}

int cmd_audit(const char* path, bool as_json) {
  const auto text = read_file(path);
  if (!text) {
    std::fprintf(stderr, "%s\n", text.error().message.c_str());
    return 1;
  }
  const auto log = har::parse(*text);
  if (!log) {
    std::fprintf(stderr, "HAR parse error: %s (offset %zu)\n",
                 log.error().message.c_str(), log.error().offset);
    return 1;
  }
  har::ImportStats stats;
  const core::SiteObservation site = har::import_site(log.value(), &stats);
  const auto cls =
      core::classify_site(site, {core::DurationModel::kEndless});
  if (as_json) {
    json::Object root;
    root.set("classification", core::to_json(cls));
    root.set("audit",
             core::to_json(core::audit_site(
                 site, cls, core::Policy{core::DurationModel::kEndless})));
    json::WriteOptions opts;
    opts.pretty = true;
    std::printf("%s\n", json::write(json::Value{std::move(root)}, opts).c_str());
    return 0;
  }
  std::printf("%llu entries, %llu usable HTTP/2 requests (%llu filtered, "
              "%llu h1, %llu h3)\n\n",
              static_cast<unsigned long long>(stats.total_entries),
              static_cast<unsigned long long>(stats.used_entries),
              static_cast<unsigned long long>(stats.dropped()),
              static_cast<unsigned long long>(stats.h1_entries),
              static_cast<unsigned long long>(stats.h3_entries));
  std::printf("%s",
              core::render(
                  core::audit_site(
                      site, cls, core::Policy{core::DurationModel::kEndless}))
                  .c_str());
  return 0;
}

/// The full study as one deterministic JSON document (full-fidelity
/// reports, diagnostics-free summaries) — byte-identical across thread
/// counts and across kill/resume, which is exactly what the CI
/// crash-recovery job diffs.
json::Value study_to_json(const experiments::StudyResults& r) {
  json::Object root;
  json::Object reports;
  reports.set("har_endless", core::to_json_full(r.har_endless));
  reports.set("har_immediate", core::to_json_full(r.har_immediate));
  reports.set("alexa_exact", core::to_json_full(r.alexa_exact));
  reports.set("alexa_endless", core::to_json_full(r.alexa_endless));
  reports.set("nofetch_exact", core::to_json_full(r.nofetch_exact));
  reports.set("overlap_har_endless", core::to_json_full(r.overlap_har_endless));
  reports.set("overlap_alexa_endless",
              core::to_json_full(r.overlap_alexa_endless));
  root.set("reports", std::move(reports));
  json::Object summaries;
  summaries.set("har", journal::to_json(r.har_summary));
  summaries.set("alexa", journal::to_json(r.alexa_summary));
  summaries.set("nofetch", journal::to_json(r.nofetch_summary));
  root.set("summaries", std::move(summaries));
  root.set("overlap_sites", static_cast<std::int64_t>(r.overlap_sites));
  return json::Value{std::move(root)};
}

int cmd_study(int argc, char** argv) {
  experiments::StudyConfig config = experiments::StudyConfig::from_env();
  const char* json_out = nullptr;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--journal") == 0 && i + 1 < argc) {
      config.journal_path = argv[++i];
    } else if (std::strcmp(argv[i], "--resume") == 0) {
      config.resume = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_out = argv[++i];
    } else if (std::strcmp(argv[i], "--metrics") == 0 && i + 1 < argc) {
      config.metrics_path = argv[++i];
    } else if (std::strcmp(argv[i], "--hist-budget") == 0 && i + 1 < argc) {
      config.hist_budget = util::parse_flag<std::uint32_t>(
          "H2R_HIST_BUDGET", "--hist-budget", argv[++i]);
    } else {
      return usage();
    }
  }
  if (config.resume && config.journal_path.empty()) {
    std::fprintf(stderr, "--resume needs a journal (--journal/H2R_JOURNAL)\n");
    return 2;
  }
  std::printf("running study: %zu HAR-like + %zu Alexa-like sites, seed %llu, "
              "%u thread(s)\n",
              config.har_sites, config.alexa_sites,
              static_cast<unsigned long long>(config.seed), config.threads);
  if (!config.journal_path.empty()) {
    std::printf("journal: %s%s\n", config.journal_path.c_str(),
                config.resume ? " (resuming)" : "");
  }
  if (config.hist_budget > 0) {
    std::printf("histograms: budgeted to %u bins\n", config.hist_budget);
  }
  std::printf("\n");
  experiments::StudyResults r;
  try {
    r = experiments::run_study(config);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "study failed: %s\n", error.what());
    return 1;
  }
  auto row = [](const char* name, const core::AggregateReport& report) {
    std::printf("%-18s %7s sites (%s redundant)  %9s conns (%s redundant)\n",
                name, util::human_count(report.h2_sites).c_str(),
                util::percent(static_cast<double>(report.redundant_sites),
                              static_cast<double>(report.h2_sites))
                    .c_str(),
                util::human_count(report.total_connections).c_str(),
                util::percent(
                    static_cast<double>(report.redundant_connections),
                    static_cast<double>(report.total_connections))
                    .c_str());
  };
  row("HAR endless", r.har_endless);
  row("HAR immediate", r.har_immediate);
  row("Alexa", r.alexa_exact);
  row("Alexa w/o Fetch", r.nofetch_exact);

  if (config.faults.enabled()) {
    std::printf("\nfault injection (%s), all campaigns:\n%s",
                config.faults.signature().c_str(),
                fault::describe(r.total_failures()).c_str());
  }

  auto workers = [](const char* name, const browser::CrawlSummary& summary) {
    if (summary.per_worker.empty()) return;
    std::printf("\n%s crawl workers:\n%s", name,
                browser::describe_workers(summary).c_str());
  };
  workers("Alexa", r.alexa_summary);
  workers("Alexa w/o Fetch", r.nofetch_summary);
  workers("HAR", r.har_summary);

  if (!config.journal_path.empty()) {
    std::printf("\njournal: %llu bytes in %llu fsynced commits",
                static_cast<unsigned long long>(r.journal_bytes),
                static_cast<unsigned long long>(r.journal_fsyncs));
    if (r.resumed_chunks > 0) {
      std::printf("; resumed %llu chunk(s) covering %llu site(s)",
                  static_cast<unsigned long long>(r.resumed_chunks),
                  static_cast<unsigned long long>(r.resumed_sites));
    }
    std::printf("\n");
  }

  if (!r.metrics.empty()) {
    std::printf("\nmetrics:\n%s", obs::render_table(r.metrics).c_str());
  }
  if (!config.metrics_path.empty()) {
    if (!write_json(config.metrics_path, obs::to_json(r.metrics))) return 1;
    std::printf("wrote metric snapshot to %s\n", config.metrics_path.c_str());
  }

  if (json_out != nullptr) {
    if (!write_json(json_out, study_to_json(r))) return 1;
    std::printf("wrote study report to %s\n", json_out);
  }
  return 0;
}

int cmd_optimize(int argc, char** argv) {
  optimize::OptimizeConfig config = optimize::OptimizeConfig::from_env();
  const char* json_out = nullptr;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--sites") == 0 && i + 1 < argc) {
      config.sites = util::parse_flag<std::size_t>("H2R_ALEXA_SITES",
                                                   "--sites", argv[++i]);
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_out = argv[++i];
    } else {
      return usage();
    }
  }
  std::printf("optimizing reuse over %zu sites, seed %llu, %u thread(s), "
              "knob mask 0x%x (%zu policies)\n\n",
              config.sites, static_cast<unsigned long long>(config.seed),
              config.threads, config.knob_mask,
              static_cast<std::size_t>(1)
                  << core::Policy::with_mask(config.knob_mask).knob_count());
  optimize::OptimizeResults r;
  try {
    r = optimize::run_optimize(config);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "optimize failed: %s\n", error.what());
    return 1;
  }
  std::printf("%s", optimize::render(r).c_str());
  if (json_out != nullptr) {
    if (!write_json(json_out, optimize::to_json(r))) return 1;
    std::printf("\nwrote intervention ranking to %s\n", json_out);
  }
  return 0;
}

int cmd_replay(int argc, char** argv) {
  const experiments::StudyConfig study = experiments::StudyConfig::from_env();
  proxy::ReplayOptions options;
  options.pool = pool::PoolConfig::from_env();
  options.crawl.seed = study.seed;
  options.crawl.threads = study.threads;
  options.threads = study.threads;
  std::size_t sites = study.alexa_sites;
  bool want_shared = true;
  bool want_worker = false;
  const char* json_out = nullptr;
  const char* metrics_out = nullptr;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--proxy") == 0 && i + 1 < argc) {
      const char* arch = argv[++i];
      if (std::strcmp(arch, "shared") == 0) {
        want_shared = true;
        want_worker = false;
      } else if (std::strcmp(arch, "worker") == 0) {
        want_shared = false;
        want_worker = true;
      } else if (std::strcmp(arch, "both") == 0) {
        want_shared = true;
        want_worker = true;
      } else {
        std::fprintf(stderr, "--proxy wants shared|worker|both, got %s\n",
                     arch);
        return 2;
      }
    } else if (std::strcmp(argv[i], "--sites") == 0 && i + 1 < argc) {
      sites = util::parse_flag<std::size_t>("H2R_ALEXA_SITES", "--sites",
                                            argv[++i]);
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_out = argv[++i];
    } else if (std::strcmp(argv[i], "--metrics") == 0 && i + 1 < argc) {
      metrics_out = argv[++i];
    } else {
      return usage();
    }
  }

  std::printf("replaying %zu site(s) x %zu visit(s) through the edge proxy "
              "(%s), seed %llu, %u thread(s)\n",
              sites, options.pool.visits, options.pool.signature().c_str(),
              static_cast<unsigned long long>(study.seed), study.threads);

  web::Ecosystem eco{study.seed};
  web::ServiceCatalog catalog{eco, study.seed};
  web::UniverseConfig universe_config = web::UniverseConfig::defaults();
  universe_config.seed = study.seed;
  web::SiteUniverse universe{eco, catalog, universe_config};
  const std::vector<proxy::SiteTrace> traces =
      proxy::collect_traces(universe, 0, sites, options.crawl);

  json::Object json_root;
  json::Object metrics_root;
  const pool::Architecture archs[] = {pool::Architecture::kWorker,
                                      pool::Architecture::kShared};
  for (const pool::Architecture arch : archs) {
    if (arch == pool::Architecture::kShared ? !want_shared : !want_worker) {
      continue;
    }
    options.pool.arch = arch;
    const proxy::ReplayReport report = proxy::replay_traces(traces, options);
    std::printf("\n%s", proxy::render(report).c_str());
    const std::string name = pool::to_string(arch);
    json_root.set(name, proxy::to_json(report));
    metrics_root.set(name, obs::to_json(report.metrics));
  }

  if (metrics_out != nullptr) {
    if (!write_json(metrics_out, json::Value{std::move(metrics_root)})) {
      return 1;
    }
    std::printf("\nwrote metric snapshot to %s\n", metrics_out);
  }
  if (json_out != nullptr) {
    if (!write_json(json_out, json::Value{std::move(json_root)})) return 1;
    std::printf("\nwrote replay report to %s\n", json_out);
  }
  return 0;
}

int cmd_crawl(int argc, char** argv) {
  const auto text = read_file(argv[0]);
  if (!text) {
    std::fprintf(stderr, "%s\n", text.error().message.c_str());
    return 1;
  }
  web::Ecosystem eco{1};
  const auto loaded = web::load_ecosystem(eco, *text);
  if (!loaded) {
    std::fprintf(stderr, "config error: %s\n", loaded.error().message.c_str());
    return 1;
  }
  std::printf("loaded %zu cluster(s) from %s\n", *loaded, argv[0]);

  web::Website site;
  site.landing_domain = argv[1];
  site.url = std::string("https://") + argv[1];
  util::Rng rng{7};
  for (int i = 2; i < argc; ++i) {
    web::Resource r;
    r.domain = argv[i];
    r.path = std::string("/");  // dodges GCC 12 -Wrestrict FP (PR 105651)
    r.destination = fetch::Destination::kScript;
    r.start_delay = web::jitter(rng, 20, 300);
    site.resources.push_back(std::move(r));
  }

  dns::RecursiveResolver resolver{dns::standard_vantage_points()[0],
                                  &eco.authority()};
  browser::Browser chrome{eco, resolver, browser::BrowserOptions{}, 1};
  const browser::PageLoadResult page = chrome.load(site, util::days(1));
  if (page.failures.failed_fetches > 0) {
    std::printf("note: %llu fetches failed (unresolvable or TLS mismatch)\n",
                static_cast<unsigned long long>(page.failures.failed_fetches));
  }
  std::printf("%s", core::render(core::audit_site(page.observation)).c_str());
  return 0;
}

int cmd_dns_overlap(int argc, char** argv) {
  (void)argc;
  const auto text = read_file(argv[0]);
  if (!text) {
    std::fprintf(stderr, "%s\n", text.error().message.c_str());
    return 1;
  }
  web::Ecosystem eco{1};
  const auto loaded = web::load_ecosystem(eco, *text);
  if (!loaded) {
    std::fprintf(stderr, "config error: %s\n", loaded.error().message.c_str());
    return 1;
  }
  const std::vector<std::pair<std::string, std::string>> pairs = {
      {argv[1], argv[2]}};
  core::DnsOverlapConfig config;
  config.duration = util::days(1);
  const auto series = core::run_dns_overlap_study(
      eco.authority(), pairs, dns::standard_vantage_points(), config);
  std::printf("%s / %s: answers overlap in %.0f%% of 6-minute slots "
              "(mean %.2f of 14 resolvers)\n",
              argv[1], argv[2], 100.0 * series[0].any_overlap_share(),
              series[0].mean_overlap());
  std::printf(series[0].mean_overlap() > 7
                  ? "-> connection reuse mostly works for this pair\n"
                  : "-> expect IP-cause redundant connections for this pair\n");
  return 0;
}

int cmd_snapshot(const char* path, std::size_t count) {
  web::Ecosystem eco{42};
  web::ServiceCatalog catalog{eco, 42};
  web::SiteUniverse universe{eco, catalog};
  browser::CrawlOptions options;
  std::vector<core::SiteObservation> observations;
  browser::crawl_range(universe, 0, count, options,
                       [&](const browser::SiteResult& site) {
                         if (site.reachable) {
                           observations.push_back(site.netlog_observation);
                         }
                       });
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return 1;
  }
  out << json::write(core::dataset_to_json(observations));
  std::printf("wrote %zu site observations to %s\n", observations.size(),
              path);
  return 0;
}

int cmd_analyze(const char* path) {
  const auto text = read_file(path);
  if (!text) {
    std::fprintf(stderr, "%s\n", text.error().message.c_str());
    return 1;
  }
  const auto parsed = json::parse(*text);
  if (!parsed) {
    std::fprintf(stderr, "JSON error: %s\n", parsed.error().message.c_str());
    return 1;
  }
  const auto dataset = core::dataset_from_json(parsed.value());
  if (!dataset) {
    std::fprintf(stderr, "dataset error: %s\n",
                 dataset.error().message.c_str());
    return 1;
  }
  core::Aggregator agg;
  for (const core::SiteObservation& site : *dataset) {
    agg.add_site(site,
                 core::classify_site(site, {core::DurationModel::kExact}));
  }
  const core::AggregateReport& r = agg.report();
  std::printf("%zu sites, %s connections, %s redundant (%s)\n",
              dataset->size(),
              util::human_count(r.total_connections).c_str(),
              util::human_count(r.redundant_connections).c_str(),
              util::percent(static_cast<double>(r.redundant_connections),
                            static_cast<double>(r.total_connections))
                  .c_str());
  for (core::Cause cause : core::kAllCauses) {
    const auto it = r.by_cause.find(cause);
    if (it == r.by_cause.end()) continue;
    std::printf("  %-5s %6s sites  %8s connections\n",
                core::to_string(cause).c_str(),
                util::human_count(it->second.sites).c_str(),
                util::human_count(it->second.connections).c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) try {
  if (argc < 2) return usage();
  const char* cmd = argv[1];
  if (std::strcmp(cmd, "audit") == 0 && (argc == 3 || argc == 4)) {
    if (argc == 4 && std::strcmp(argv[3], "--json") != 0) {
      std::fprintf(stderr, "audit: unknown argument '%s'\n", argv[3]);
      return usage();
    }
    return cmd_audit(argv[2], argc == 4);
  }
  if (std::strcmp(cmd, "study") == 0) return cmd_study(argc - 2, argv + 2);
  if (std::strcmp(cmd, "optimize") == 0) {
    return cmd_optimize(argc - 2, argv + 2);
  }
  if (std::strcmp(cmd, "replay") == 0) return cmd_replay(argc - 2, argv + 2);
  if (std::strcmp(cmd, "crawl") == 0 && argc >= 4) {
    return cmd_crawl(argc - 2, argv + 2);
  }
  if (std::strcmp(cmd, "dns-overlap") == 0 && argc == 5) {
    return cmd_dns_overlap(argc - 2, argv + 2);
  }
  if (std::strcmp(cmd, "snapshot") == 0 && (argc == 3 || argc == 4)) {
    return cmd_snapshot(argv[2],
                        argc == 4 ? util::parse_count("site-count", argv[3])
                                  : std::size_t{100});
  }
  if (std::strcmp(cmd, "analyze") == 0 && argc == 3) {
    return cmd_analyze(argv[2]);
  }
  return usage();
} catch (const util::ConfigError& error) {
  std::fprintf(stderr, "%s\n", error.what());
  return 2;
}

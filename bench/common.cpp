#include "common.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <optional>

#include "fault/fault.hpp"
#include "obs/metrics.hpp"
#include "util/format.hpp"

namespace h2r::benchcommon {

const experiments::StudyResults& study() {
  const experiments::StudyConfig config = experiments::StudyConfig::from_env();
  static bool banner_printed = false;
  const bool first_call = !banner_printed;
  if (first_call) {
    std::printf(
        "# synthetic study: %zu HTTP-Archive-like sites (ranks %zu..%zu), "
        "%zu Alexa-like sites (ranks 0..%zu), seed %llu, %u thread(s)\n"
        "# scale with H2R_HAR_SITES / H2R_ALEXA_SITES / H2R_SEED; "
        "parallelize with H2R_THREADS (results are thread-count invariant); "
        "inject faults with H2R_FAULT_RATE; "
        "journal checkpoints to H2R_JOURNAL (resume with H2R_RESUME); "
        "percentages and rankings are the reproduction target\n\n",
        config.har_sites, config.har_first_rank,
        config.har_first_rank + config.har_sites, config.alexa_sites,
        config.alexa_sites, static_cast<unsigned long long>(config.seed),
        config.threads);
    banner_printed = true;
  }
  static const experiments::StudyResults results =
      experiments::run_study(config);
  if (first_call) {
    // Per-worker baseline for perf PRs: sites/connections per worker plus
    // wall, CPU and queue-wait time of each crawl worker.
    auto workers = [](const char* name,
                      const browser::CrawlSummary& summary) {
      if (summary.per_worker.empty()) return;
      std::printf("# %s crawl workers:\n%s", name,
                  browser::describe_workers(summary).c_str());
    };
    workers("Alexa", results.alexa_summary);
    workers("Alexa w/o Fetch", results.nofetch_summary);
    workers("HAR", results.har_summary);
    if (config.faults.enabled()) {
      std::printf("# fault injection (%s), all campaigns:\n%s",
                  config.faults.signature().c_str(),
                  fault::describe(results.total_failures()).c_str());
    }
    if (!config.journal_path.empty()) {
      std::printf("# crash journal (%s): %llu bytes in %llu fsynced "
                  "commits\n",
                  config.journal_path.c_str(),
                  static_cast<unsigned long long>(results.journal_bytes),
                  static_cast<unsigned long long>(results.journal_fsyncs));
      if (results.resumed_chunks > 0) {
        std::printf("# resumed %llu chunk(s) covering %llu site(s) from the "
                    "journal\n",
                    static_cast<unsigned long long>(results.resumed_chunks),
                    static_cast<unsigned long long>(results.resumed_sites));
      }
    }
    if (!results.metrics.empty()) {
      std::printf("# metrics (deterministic domain is thread-count "
                  "invariant; snapshot via H2R_METRICS):\n%s",
                  obs::render_table(results.metrics).c_str());
    }
    if (!config.metrics_path.empty()) {
      const auto written = json::write_file(
          config.metrics_path, obs::to_json(results.metrics), /*pretty=*/true);
      if (!written) {
        std::fprintf(stderr, "%s\n", written.error().message.c_str());
        std::exit(1);
      }
      std::printf("# wrote metric snapshot to %s\n",
                  config.metrics_path.c_str());
    }
    std::printf("\n");
  }
  return results;
}

void add_cause_rows(stats::Table& table, const std::string& label,
                    const core::AggregateReport& report) {
  auto cause_row = [&](core::Cause cause) {
    const auto it = report.by_cause.find(cause);
    const core::CauseTally tally =
        it == report.by_cause.end() ? core::CauseTally{} : it->second;
    table.add_row(
        {label + " " + core::to_string(cause), util::human_count(tally.sites),
         util::percent(static_cast<double>(tally.sites),
                       static_cast<double>(report.h2_sites)),
         util::human_count(tally.connections),
         util::percent(static_cast<double>(tally.connections),
                       static_cast<double>(report.total_connections))});
  };
  cause_row(core::Cause::kCert);
  cause_row(core::Cause::kIp);
  cause_row(core::Cause::kCred);
  table.add_row(
      {label + " Redund.", util::human_count(report.redundant_sites),
       util::percent(static_cast<double>(report.redundant_sites),
                     static_cast<double>(report.h2_sites)),
       util::human_count(report.redundant_connections),
       util::percent(static_cast<double>(report.redundant_connections),
                     static_cast<double>(report.total_connections))});
  table.add_row({label + " Total", util::human_count(report.h2_sites), "",
                 util::human_count(report.total_connections), ""});
  table.add_separator();
}

namespace {

std::string rank_str(const std::optional<std::size_t>& rank) {
  return rank.has_value() ? std::to_string(*rank) : "-";
}

}  // namespace

void print_ip_origin_table(const std::string& title,
                           const core::AggregateReport& a,
                           const std::string& name_a,
                           const core::AggregateReport& b,
                           const std::string& name_b, std::size_t top_n) {
  stats::Table table({"Origin", name_a + " rank", name_a + " conns",
                      name_b + " rank", name_b + " conns"},
                     {stats::Align::kLeft});
  // Union of both datasets' top lists, like the paper's tables that pin
  // rows present in only one column.
  auto add_origin = [&](const std::string& origin) {
    const auto it_a = a.ip_origins.find(origin);
    const auto it_b = b.ip_origins.find(origin);
    table.add_row(
        {origin, rank_str(core::rank_of(a.ip_origins, origin)),
         it_a != a.ip_origins.end()
             ? util::human_count(it_a->second.connections)
             : "",
         rank_str(core::rank_of(b.ip_origins, origin)),
         it_b != b.ip_origins.end()
             ? util::human_count(it_b->second.connections)
             : ""});
    auto prev_row = [&](const core::OriginTally* tally) {
      if (tally == nullptr) return std::pair<std::string, std::uint64_t>{"", 0};
      const auto prev = core::top_previous(*tally);
      return prev.has_value() ? *prev
                              : std::pair<std::string, std::uint64_t>{"", 0};
    };
    const auto prev_a =
        prev_row(it_a != a.ip_origins.end() ? &it_a->second : nullptr);
    const auto prev_b =
        prev_row(it_b != b.ip_origins.end() ? &it_b->second : nullptr);
    const std::string prev_name =
        !prev_a.first.empty() ? prev_a.first : prev_b.first;
    if (!prev_name.empty()) {
      table.add_row({"  prev: " + prev_name, "",
                     prev_a.second > 0 ? util::human_count(prev_a.second) : "",
                     "",
                     prev_b.second > 0 ? util::human_count(prev_b.second)
                                       : ""});
    }
  };

  std::vector<std::string> shown;
  for (const auto& [origin, tally] : core::top_k(a.ip_origins, top_n)) {
    (void)tally;
    shown.push_back(origin);
    add_origin(origin);
  }
  for (const auto& [origin, tally] : core::top_k(b.ip_origins, top_n)) {
    (void)tally;
    if (std::find(shown.begin(), shown.end(), origin) == shown.end()) {
      add_origin(origin);
    }
  }
  std::printf("%s\n", table.render(title).c_str());
}

void print_cert_issuer_table(const std::string& title,
                             const core::AggregateReport& a,
                             const std::string& name_a,
                             const core::AggregateReport& b,
                             const std::string& name_b, std::size_t top_n) {
  stats::Table table({"Certificate Issuer", name_a + " rank",
                      name_a + " conns", name_a + " domains",
                      name_b + " rank", name_b + " conns",
                      name_b + " domains"},
                     {stats::Align::kLeft});
  std::vector<std::string> shown;
  auto add_issuer = [&](const std::string& issuer) {
    const auto it_a = a.cert_issuers.find(issuer);
    const auto it_b = b.cert_issuers.find(issuer);
    table.add_row(
        {issuer, rank_str(core::rank_of(a.cert_issuers, issuer)),
         it_a != a.cert_issuers.end()
             ? util::human_count(it_a->second.connections)
             : "",
         it_a != a.cert_issuers.end()
             ? util::human_count(it_a->second.domains.size())
             : "",
         rank_str(core::rank_of(b.cert_issuers, issuer)),
         it_b != b.cert_issuers.end()
             ? util::human_count(it_b->second.connections)
             : "",
         it_b != b.cert_issuers.end()
             ? util::human_count(it_b->second.domains.size())
             : ""});
  };
  for (const auto& [issuer, tally] : core::top_k(a.cert_issuers, top_n)) {
    (void)tally;
    shown.push_back(issuer);
    add_issuer(issuer);
  }
  for (const auto& [issuer, tally] : core::top_k(b.cert_issuers, top_n)) {
    (void)tally;
    if (std::find(shown.begin(), shown.end(), issuer) == shown.end()) {
      add_issuer(issuer);
    }
  }
  std::printf("%s\n", table.render(title).c_str());
}

void print_cert_domain_table(const std::string& title,
                             const core::AggregateReport& a,
                             const std::string& name_a,
                             const core::AggregateReport& b,
                             const std::string& name_b, std::size_t top_n) {
  stats::Table table({"Domain", name_a + " rank", name_a + " conns",
                      name_b + " rank", name_b + " conns", "Issuer"},
                     {stats::Align::kLeft});
  std::vector<std::string> shown;
  auto add_domain = [&](const std::string& domain) {
    const auto it_a = a.cert_domains.find(domain);
    const auto it_b = b.cert_domains.find(domain);
    const std::string issuer = it_a != a.cert_domains.end()
                                   ? it_a->second.issuer
                                   : (it_b != b.cert_domains.end()
                                          ? it_b->second.issuer
                                          : "");
    table.add_row(
        {domain, rank_str(core::rank_of(a.cert_domains, domain)),
         it_a != a.cert_domains.end()
             ? util::human_count(it_a->second.connections)
             : "",
         rank_str(core::rank_of(b.cert_domains, domain)),
         it_b != b.cert_domains.end()
             ? util::human_count(it_b->second.connections)
             : "",
         issuer});
    auto prev_of = [](const core::OriginTally* tally) {
      if (tally == nullptr) return std::pair<std::string, std::uint64_t>{"", 0};
      const auto prev = core::top_previous(*tally);
      return prev.has_value() ? *prev
                              : std::pair<std::string, std::uint64_t>{"", 0};
    };
    const auto prev_a =
        prev_of(it_a != a.cert_domains.end() ? &it_a->second : nullptr);
    const auto prev_b =
        prev_of(it_b != b.cert_domains.end() ? &it_b->second : nullptr);
    const std::string prev_name =
        !prev_a.first.empty() ? prev_a.first : prev_b.first;
    if (!prev_name.empty()) {
      table.add_row({"  prev: " + prev_name, "",
                     prev_a.second > 0 ? util::human_count(prev_a.second) : "",
                     "",
                     prev_b.second > 0 ? util::human_count(prev_b.second) : "",
                     ""});
    }
  };
  for (const auto& [domain, tally] : core::top_k(a.cert_domains, top_n)) {
    (void)tally;
    shown.push_back(domain);
    add_domain(domain);
  }
  for (const auto& [domain, tally] : core::top_k(b.cert_domains, top_n)) {
    (void)tally;
    if (std::find(shown.begin(), shown.end(), domain) == shown.end()) {
      add_domain(domain);
    }
  }
  std::printf("%s\n", table.render(title).c_str());
}

}  // namespace h2r::benchcommon

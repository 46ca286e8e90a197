// Microbenchmarks (google-benchmark) for the hot paths: the redundancy
// classifier (both the classic entry point and the arena-backed
// ClassifyContext sweep), the aggregator, HPACK coding, DNS resolution and
// a full simulated page load. These back the DESIGN.md claim that the
// classifier is cheap enough to run over millions of sites.
//
// Beyond the usual google-benchmark flags, the binary records a perf
// trajectory for CI:
//
//   --perf_out <path>    parse <path> (or start fresh), append one entry
//                        holding every benchmark's time and items/s, and
//                        rewrite the file (BENCH_perf.json in the repo).
//   --perf_label <str>   label for the appended entry (CI passes the SHA).
//   --perf_gate <frac>   after appending, compare the classifier sweep's
//                        items/s against the FIRST (committed baseline)
//                        entry and exit 1 when it regressed by more than
//                        <frac> (CI uses 0.15).
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/classify.hpp"
#include "core/report.hpp"
#include "dns/vantage.hpp"
#include "experiments/perf_model.hpp"
#include "http2/hpack.hpp"
#include "json/json.hpp"
#include "net/ip.hpp"
#include "util/rng.hpp"
#include "web/catalog.hpp"
#include "web/sitegen.hpp"
#include "browser/browser.hpp"

using namespace h2r;

namespace {

core::SiteObservation synthetic_site(std::size_t connections) {
  core::SiteObservation site;
  site.site_url = "https://bench.example";
  util::Rng rng{99};
  for (std::size_t i = 0; i < connections; ++i) {
    core::ConnectionRecord rec;
    rec.id = i;
    rec.endpoint.address =
        net::IpAddress::v4(10, 0, 0, static_cast<std::uint8_t>(rng.index(8)));
    rec.endpoint.port = 443;
    rec.initial_domain = "host" + std::to_string(rng.index(6)) + ".example";
    rec.san_dns_names = {"*.example"};
    rec.issuer_organization = "Bench CA";
    rec.opened_at = static_cast<util::SimTime>(i * 50);
    core::RequestRecord req;
    req.started_at = rec.opened_at;
    req.finished_at = rec.opened_at + 40;
    req.domain = rec.initial_domain;
    rec.requests.push_back(req);
    site.connections.push_back(std::move(rec));
  }
  return site;
}

void BM_ClassifySite(benchmark::State& state) {
  const core::SiteObservation site =
      synthetic_site(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::classify_site(site, {core::DurationModel::kEndless}));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ClassifySite)->Arg(8)->Arg(24)->Arg(64);

// The model-independent half of the hot path: lowering, interning, SAN
// matching and exclusion tests, all materialized into the SoA
// ConnectionTable once per site.
void BM_TableBuild(benchmark::State& state) {
  const core::SiteObservation site =
      synthetic_site(static_cast<std::size_t>(state.range(0)));
  core::ClassifyContext context;
  for (auto _ : state) {
    context.prepare(site);
    benchmark::DoNotOptimize(context.table().size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TableBuild)->Arg(8)->Arg(24)->Arg(64);

// The model-dependent half: one O(pairs) sweep over the prepared table.
// This is the series the CI perf gate watches (--perf_gate); the study
// pays it once per duration model per site.
void BM_ClassifyContextSweep(benchmark::State& state) {
  const core::SiteObservation site =
      synthetic_site(static_cast<std::size_t>(state.range(0)));
  core::ClassifyContext context;
  context.prepare(site);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        context.classify({core::DurationModel::kEndless}));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ClassifyContextSweep)->Arg(8)->Arg(24)->Arg(64);

void BM_Aggregate(benchmark::State& state) {
  const core::SiteObservation site = synthetic_site(24);
  const core::SiteClassification cls =
      core::classify_site(site, {core::DurationModel::kEndless});
  for (auto _ : state) {
    core::Aggregator agg;
    agg.add_site(site, cls);
    benchmark::DoNotOptimize(agg.report());
  }
}
BENCHMARK(BM_Aggregate);

void BM_HpackEncode(benchmark::State& state) {
  const auto workload = experiments::make_header_workload(64, 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(experiments::hpack_bytes(workload, 1));
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_HpackEncode);

void BM_DnsResolve(benchmark::State& state) {
  web::Ecosystem eco{42};
  web::ServiceCatalog catalog{eco, 42};
  dns::RecursiveResolver resolver{dns::standard_vantage_points()[0],
                                  &eco.authority()};
  util::SimTime now = util::days(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(resolver.resolve("www.google-analytics.com", now));
    now += util::seconds(400);  // stay past the TTL -> upstream query
  }
}
BENCHMARK(BM_DnsResolve);

void BM_PageLoad(benchmark::State& state) {
  web::Ecosystem eco{42};
  web::ServiceCatalog catalog{eco, 42};
  web::SiteUniverse universe{eco, catalog};
  dns::RecursiveResolver resolver{dns::standard_vantage_points()[0],
                                  &eco.authority()};
  browser::Browser chrome{eco, resolver, browser::BrowserOptions{}, 5};
  const web::Website site = universe.generate_site(1);
  util::SimTime now = util::days(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(chrome.load(site, now));
    now += util::seconds(30);
  }
}
BENCHMARK(BM_PageLoad);

// ---------------------------------------------------------------------------
// BENCH_perf.json trajectory

/// One benchmark's measurement, captured from the console reporter.
struct PerfResult {
  std::string name;
  double real_time = 0.0;  // in the run's time unit (ns by default)
  double items_per_second = 0.0;  // 0 when the bench reports no items
};

/// The benchmark whose items/s the CI regression gate watches.
constexpr std::string_view kGateBenchmark = "BM_ClassifyContextSweep/64";

/// ConsoleReporter that also captures per-run numbers for --perf_out.
class PerfRecorder : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& reports) override {
    for (const Run& run : reports) {
      if (run.run_type != Run::RT_Iteration || run.error_occurred) continue;
      PerfResult result;
      result.name = run.benchmark_name();
      result.real_time = run.GetAdjustedRealTime();
      const auto it = run.counters.find("items_per_second");
      if (it != run.counters.end()) {
        result.items_per_second = static_cast<double>(it->second);
      }
      results_.push_back(std::move(result));
    }
    ConsoleReporter::ReportRuns(reports);
  }

  const std::vector<PerfResult>& results() const noexcept { return results_; }

 private:
  std::vector<PerfResult> results_;
};

double gate_metric(const json::Value& entry) {
  return entry["results"][kGateBenchmark]["items_per_second"].as_double();
}

/// Appends one entry to the trajectory file and applies the regression
/// gate. Returns the process exit code.
int record_trajectory(const std::string& path, const std::string& label,
                      double gate, const std::vector<PerfResult>& results) {
  json::Object root;
  {
    std::ifstream in(path);
    if (in) {
      std::stringstream buffer;
      buffer << in.rdbuf();
      auto parsed = json::parse(buffer.str());
      if (!parsed) {
        std::fprintf(stderr, "perf: cannot parse %s: %s\n", path.c_str(),
                     parsed.error().message.c_str());
        return 2;
      }
      if (!parsed->is_object()) {
        std::fprintf(stderr, "perf: %s is not a JSON object\n", path.c_str());
        return 2;
      }
      root = parsed->as_object();
    }
  }
  if (!root.contains("bench")) root.set("bench", "micro_classifier");
  json::Array trajectory;
  if (const json::Value* existing = root.find("trajectory");
      existing != nullptr && existing->is_array()) {
    trajectory = existing->as_array();
  }

  json::Object measured;
  for (const PerfResult& result : results) {
    json::Object one;
    one.set("real_ns", result.real_time);
    if (result.items_per_second > 0.0) {
      one.set("items_per_second", result.items_per_second);
    }
    measured.set(result.name, json::Value{std::move(one)});
  }
  json::Object entry;
  entry.set("label", label);
  entry.set("results", json::Value{std::move(measured)});
  trajectory.push_back(json::Value{std::move(entry)});

  // The gate compares against the FIRST entry: that is the committed
  // baseline, so a slow creep across many PRs cannot ratchet it down.
  int exit_code = 0;
  if (gate > 0.0 && trajectory.size() >= 2) {
    const double baseline = gate_metric(trajectory.front());
    const double current = gate_metric(trajectory.back());
    if (baseline <= 0.0 || current <= 0.0) {
      std::fprintf(stderr, "perf: %s missing from baseline or this run\n",
                   std::string(kGateBenchmark).c_str());
      exit_code = 2;
    } else if (current < baseline * (1.0 - gate)) {
      std::fprintf(stderr,
                   "perf: %s regressed: %.3g items/s vs baseline %.3g "
                   "(-%.1f%%, gate %.0f%%)\n",
                   std::string(kGateBenchmark).c_str(), current, baseline,
                   (1.0 - current / baseline) * 100.0, gate * 100.0);
      exit_code = 1;
    } else {
      std::fprintf(stderr, "perf: %s at %.3g items/s vs baseline %.3g (ok)\n",
                   std::string(kGateBenchmark).c_str(), current, baseline);
    }
  }

  root.set("trajectory", json::Value{std::move(trajectory)});
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "perf: cannot write %s\n", path.c_str());
    return 2;
  }
  out << json::write(json::Value{std::move(root)}, {.pretty = true}) << "\n";
  return exit_code;
}

}  // namespace

int main(int argc, char** argv) {
  std::string perf_out;
  std::string perf_label = "local";
  double perf_gate = 0.0;
  std::vector<char*> bench_args;
  bench_args.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto value = [&](const char* flag) -> char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--perf_out") {
      perf_out = value("--perf_out");
    } else if (arg == "--perf_label") {
      perf_label = value("--perf_label");
    } else if (arg == "--perf_gate") {
      perf_gate = std::strtod(value("--perf_gate"), nullptr);
    } else {
      bench_args.push_back(argv[i]);
    }
  }
  int bench_argc = static_cast<int>(bench_args.size());
  benchmark::Initialize(&bench_argc, bench_args.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, bench_args.data())) {
    return 2;
  }
  PerfRecorder recorder;
  benchmark::RunSpecifiedBenchmarks(&recorder);
  benchmark::Shutdown();
  if (perf_out.empty()) return 0;
  return record_trajectory(perf_out, perf_label, perf_gate,
                           recorder.results());
}

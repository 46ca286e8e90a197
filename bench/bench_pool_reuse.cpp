// Edge-proxy pool ablation (paper §7 "CDNs and edge proxies"): the same
// crawl traffic served through two upstream-pool architectures.
//
//   worker — nginx-style per-worker private pools. Every worker that
//            proxies a request to an upstream must warm its own
//            connection, and per-worker traffic is too sparse to keep it
//            alive: reuse lands near the ~87% the paper measured for
//            sharded-by-process deployments.
//   shared — Pingora-style sharded thread-safe LRU. All traffic funnels
//            into one logical pool, so a handful of connections per
//            upstream stays hot: reuse ~99.9% (Cloudflare reports
//            99.92%), and fresh connects are almost exclusively
//            cold-start.
//
// Both replays consume the SAME traces and the SAME fault plans — the
// architecture is the only variable. Gates (exit 1 on failure) pin the
// reproduced gap; --json writes the strict deterministic report that CI
// byte-diffs across thread counts.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "experiments/study.hpp"
#include "json/json.hpp"
#include "pool/pool.hpp"
#include "pool/replay.hpp"
#include "util/env.hpp"
#include "web/catalog.hpp"
#include "web/sitegen.hpp"

using namespace h2r;

namespace {

struct Gate {
  const char* label;
  double value = 0.0;
  double min = 0.0;
  double max = 1.0;

  bool pass() const { return value >= min && value <= max; }
};

int usage() {
  std::fprintf(stderr,
               "usage: bench_pool_reuse [--sites N] [--json <out>]\n"
               "         [--gate-shared-min X] [--gate-worker-min X]\n"
               "         [--gate-worker-max X] [--no-gates]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) try {
  const experiments::StudyConfig sc = experiments::StudyConfig::from_env();
  std::size_t sites = sc.alexa_sites;
  double gate_shared_min = 0.99;
  double gate_worker_min = 0.80;
  double gate_worker_max = 0.92;
  bool gates = true;
  const char* json_out = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--sites") == 0 && i + 1 < argc) {
      sites = util::parse_flag<std::size_t>("H2R_ALEXA_SITES", "--sites",
                                            argv[++i]);
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_out = argv[++i];
    } else if (std::strcmp(argv[i], "--gate-shared-min") == 0 && i + 1 < argc) {
      gate_shared_min = util::parse_rate("--gate-shared-min", argv[++i]);
    } else if (std::strcmp(argv[i], "--gate-worker-min") == 0 && i + 1 < argc) {
      gate_worker_min = util::parse_rate("--gate-worker-min", argv[++i]);
    } else if (std::strcmp(argv[i], "--gate-worker-max") == 0 && i + 1 < argc) {
      gate_worker_max = util::parse_rate("--gate-worker-max", argv[++i]);
    } else if (std::strcmp(argv[i], "--no-gates") == 0) {
      gates = false;
    } else {
      return usage();
    }
  }

  proxy::ReplayOptions options;
  options.pool = pool::PoolConfig::from_env();
  options.crawl.seed = sc.seed;
  options.crawl.threads = sc.threads;
  options.threads = sc.threads;

  std::printf("# ablation: edge-proxy pool architecture, %zu sites x %zu "
              "visits (%s)\n\n",
              sites, options.pool.visits, options.pool.signature().c_str());

  web::Ecosystem eco{sc.seed};
  web::ServiceCatalog catalog{eco, sc.seed};
  web::UniverseConfig universe_config = web::UniverseConfig::defaults();
  universe_config.seed = sc.seed;
  web::SiteUniverse universe{eco, catalog, universe_config};
  const std::vector<proxy::SiteTrace> traces =
      proxy::collect_traces(universe, 0, sites, options.crawl);

  options.pool.arch = pool::Architecture::kWorker;
  const proxy::ReplayReport worker = proxy::replay_traces(traces, options);
  options.pool.arch = pool::Architecture::kShared;
  const proxy::ReplayReport shared = proxy::replay_traces(traces, options);

  std::printf("%s\n%s\n", proxy::render(worker).c_str(),
              proxy::render(shared).c_str());
  std::printf("reuse gap: shared %.2f%% vs worker %.2f%% — the per-worker "
              "architecture re-dials what the shared pool keeps warm\n",
              100.0 * shared.reuse_rate(), 100.0 * worker.reuse_rate());

  if (json_out != nullptr) {
    json::Object root;
    root.set("worker", proxy::to_json(worker));
    root.set("shared", proxy::to_json(shared));
    const auto written = json::write_file(
        json_out, json::Value{std::move(root)}, /*pretty=*/false);
    if (!written) {
      std::fprintf(stderr, "%s\n", written.error().message.c_str());
      return 1;
    }
    std::printf("wrote replay reports to %s\n", json_out);
  }

  if (!gates) return 0;
  const Gate checks[] = {
      {"shared reuse", shared.reuse_rate(), gate_shared_min, 1.0},
      {"worker reuse", worker.reuse_rate(), gate_worker_min, gate_worker_max},
  };
  bool ok = true;
  for (const Gate& gate : checks) {
    std::printf("gate %-13s %.4f in [%.4f, %.4f]: %s\n", gate.label,
                gate.value, gate.min, gate.max,
                gate.pass() ? "PASS" : "FAIL");
    ok = ok && gate.pass();
  }
  return ok ? 0 : 1;
} catch (const util::ConfigError& error) {
  std::fprintf(stderr, "%s\n", error.what());
  return 2;
}

// Counterfactual reuse maximizer (`h2r optimize`, DESIGN §14).
//
// One crawl, 2^k classifications: the optimizer crawls the Alexa-like
// population ONCE (identical options to the study's Alexa campaign, run as
// one journal::run_campaigns spec), then replays every site observation
// under every subset of the enabled policy knobs — ORIGIN frames,
// synchronized DNS, certificate consolidation, ignored Fetch credentials —
// via
// core::ClassifyContext::classify(Policy). No re-crawl: prepare() is
// knob-independent, so each policy point costs one columnar sweep.
//
// The output is a deterministic ranking of intervention bundles: how many
// redundant connections each combination recovers, what stays redundant
// (by cause), and which operators the recovered connections are credited
// to. Bit-identical across thread counts (the determinism contract every
// campaign in this repo carries).
//
// Caveat (documented, pinned by tests/optimize_test.cpp): at nonzero
// fault rates the replay cannot identify fresh-connection fault retries
// and over-recovers; the optimizer is meant to run at rate 0.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "browser/crawl.hpp"
#include "core/policy.hpp"
#include "core/report.hpp"
#include "fault/fault.hpp"
#include "json/json.hpp"
#include "obs/metrics.hpp"

namespace h2r::optimize {

struct OptimizeConfig {
  /// Number of sites in the replayed population (ranks 0..sites).
  std::size_t sites = 1000;
  std::uint64_t seed = 42;
  /// Worker threads, forwarded to CrawlOptions::threads. Results are
  /// identical for every value; `from_env()` reads H2R_THREADS through
  /// util::env_threads, which clamps it to the machine's core count.
  unsigned threads = 1;
  /// Ignored: every sweep streams. perfbench/workload.cpp is its last writer.
  bool stream = false;
  /// Bin budget for the baseline report's histograms (0 = exact).
  std::uint32_t hist_budget = 0;
  /// Fault injection, forwarded to the crawl. The replay is only exact at
  /// rate 0 — see the header comment. `from_env()` reads H2R_FAULT_*.
  fault::FaultConfig faults;
  /// Duration model (and optional horizon) every policy point inherits.
  /// `from_env()` reads H2R_POLICY_DURATION; knob fields stay clear here —
  /// the sweep owns the knobs.
  core::Policy base;
  /// Which knobs the sweep may enable. The sweep enumerates every subset
  /// of this mask (2^popcount points, baseline included). `from_env()`
  /// restricts to the knobs named by H2R_POLICY_* flags when any is set,
  /// else sweeps all core::kAllPolicyKnobs.
  std::uint8_t knob_mask = core::kAllPolicyKnobs;

  /// Reads H2R_ALEXA_SITES / H2R_SEED / H2R_THREADS / H2R_HIST_BUDGET /
  /// H2R_FAULT_* / H2R_POLICY_* through util/env.hpp, under the same rule
  /// as StudyConfig::from_env (a bad value or unknown name throws
  /// util::ConfigError).
  static OptimizeConfig from_env();
};

/// One policy point's outcome over the whole population.
struct PolicyOutcome {
  core::Policy policy;
  core::PolicyTally tally;
};

struct OptimizeResults {
  OptimizeConfig config;
  /// Every swept policy point, best first: recovered descending, then
  /// fewer knobs, then mask ascending — so ties go to the cheapest
  /// intervention bundle and the order is fully deterministic.
  std::vector<PolicyOutcome> ranked;
  browser::CrawlSummary summary;
  /// Baseline aggregate over the same sites (the study's "exact" view).
  core::AggregateReport baseline;
  /// Merged per-worker metric shards (deterministic domain only).
  obs::Metrics metrics;
};

/// Runs the crawl + policy sweep.
OptimizeResults run_optimize(const OptimizeConfig& config);

/// Deterministic JSON document: bit-identical across thread counts
/// (threads is deliberately absent).
json::Value to_json(const OptimizeResults& results);

/// Human-readable ranking table.
std::string render(const OptimizeResults& results);

}  // namespace h2r::optimize

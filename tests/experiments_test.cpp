#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <string>
#include <thread>

#include "experiments/perf_model.hpp"
#include "experiments/study.hpp"
#include "util/env.hpp"

namespace h2r::experiments {
namespace {

StudyConfig tiny_config() {
  StudyConfig config;
  config.har_sites = 150;
  config.alexa_sites = 80;
  config.har_first_rank = 40;
  config.seed = 77;
  return config;
}

class StudyTest : public ::testing::Test {
 protected:
  static const StudyResults& results() {
    static const StudyResults r = run_study(tiny_config());
    return r;
  }
};

TEST_F(StudyTest, PopulationsAreVisited) {
  EXPECT_GT(results().alexa_exact.h2_sites, 50u);
  EXPECT_GT(results().har_endless.h2_sites, 100u);
  EXPECT_GT(results().alexa_exact.total_connections,
            results().alexa_exact.h2_sites);
}

TEST_F(StudyTest, PatchedRunHasZeroCred) {
  // §5.3.3: "the CRED cases vanish completely".
  const auto it = results().nofetch_exact.by_cause.find(core::Cause::kCred);
  if (it != results().nofetch_exact.by_cause.end()) {
    EXPECT_EQ(it->second.connections, 0u);
    EXPECT_EQ(it->second.sites, 0u);
  }
}

TEST_F(StudyTest, PatchedRunReducesTotalRedundancy) {
  EXPECT_LT(results().nofetch_exact.redundant_connections,
            results().alexa_exact.redundant_connections);
  EXPECT_LT(results().nofetch_exact.total_connections,
            results().alexa_exact.total_connections);
}

TEST_F(StudyTest, FetchRunHasSubstantialCred) {
  EXPECT_GT(results().alexa_exact.by_cause.at(core::Cause::kCred).sites, 0u);
}

TEST_F(StudyTest, ImmediateModelBoundsEndlessModel) {
  // Immediate closes connections earlier -> strictly fewer (or equal)
  // redundancies than endless, on the same crawl.
  EXPECT_LE(results().har_immediate.redundant_connections,
            results().har_endless.redundant_connections);
  EXPECT_LE(results().har_immediate.redundant_sites,
            results().har_endless.redundant_sites);
  EXPECT_EQ(results().har_immediate.total_connections,
            results().har_endless.total_connections);
}

TEST_F(StudyTest, IpDominatesConnectionwise) {
  // The paper's headline ordering: IP > CRED > CERT by connections.
  const auto& by_cause = results().alexa_exact.by_cause;
  EXPECT_GT(by_cause.at(core::Cause::kIp).connections,
            by_cause.at(core::Cause::kCred).connections);
  EXPECT_GT(by_cause.at(core::Cause::kCred).connections,
            by_cause.at(core::Cause::kCert).connections);
}

TEST_F(StudyTest, HarPipelineFiltersRequests) {
  EXPECT_GT(results().har_summary.har_stats.dropped(), 0u);
  EXPECT_GT(results().har_summary.har_stats.invalid_method, 0u);
  EXPECT_GT(results().har_summary.har_stats.h3_entries, 0u);
}

TEST_F(StudyTest, OverlapDatasetsCoverSameSites) {
  EXPECT_GT(results().overlap_sites, 0u);
  EXPECT_LE(results().overlap_har_endless.h2_sites,
            results().overlap_sites);
  // The HAR pipeline loses requests on the same sites; the NetLog side
  // must see at least as many connections (§A.3).
  EXPECT_GE(results().overlap_alexa_endless.total_connections,
            results().overlap_har_endless.total_connections);
}

TEST_F(StudyTest, GoogleAnalyticsTopsIpAttribution) {
  const auto top = core::top_k(results().alexa_exact.ip_origins, 3);
  ASSERT_FALSE(top.empty());
  bool ga_in_top3 = false;
  for (const auto& [origin, tally] : top) {
    (void)tally;
    if (origin == "www.google-analytics.com") ga_in_top3 = true;
  }
  EXPECT_TRUE(ga_in_top3);
}

TEST_F(StudyTest, SomeConnectionsCloseWithPlausibleLifetime) {
  EXPECT_GT(results().alexa_exact.closed_connections, 0u);
  const auto median = results().alexa_exact.median_closed_lifetime();
  ASSERT_TRUE(median.has_value());
  EXPECT_GT(*median, util::seconds(30));
  EXPECT_LT(*median, util::seconds(300));
}

TEST(StudyConfigTest, EnvOverrides) {
  setenv("H2R_HAR_SITES", "123", 1);
  setenv("H2R_ALEXA_SITES", "45", 1);
  setenv("H2R_SEED", "9", 1);
  const StudyConfig config = StudyConfig::from_env();
  EXPECT_EQ(config.har_sites, 123u);
  EXPECT_EQ(config.alexa_sites, 45u);
  EXPECT_EQ(config.seed, 9u);
  unsetenv("H2R_HAR_SITES");
  unsetenv("H2R_ALEXA_SITES");
  unsetenv("H2R_SEED");
  const StudyConfig defaults = StudyConfig::from_env();
  EXPECT_NE(defaults.har_sites, 123u);
}

TEST(StudyConfigTest, ThreadsEnvIsValidatedAndClamped) {
  // Garbage, zero, negative and too-wide values are errors that name the
  // variable; an absurd but valid count clamps to the machine's
  // concurrency so a big request can't spawn 10k workers.
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const unsigned fallback = StudyConfig{}.threads;
  auto threads_for = [](const char* value) {
    setenv("H2R_THREADS", value, 1);
    const unsigned threads = StudyConfig::from_env().threads;
    unsetenv("H2R_THREADS");
    return threads;
  };
  for (const char* bad : {"0", "-4", "abc", "4294967297"}) {
    setenv("H2R_THREADS", bad, 1);
    try {
      (void)StudyConfig::from_env();
      ADD_FAILURE() << "H2R_THREADS='" << bad << "' was accepted";
    } catch (const util::ConfigError& error) {
      EXPECT_NE(std::string(error.what()).find("H2R_THREADS"),
                std::string::npos)
          << error.what();
    }
    unsetenv("H2R_THREADS");
  }
  EXPECT_EQ(threads_for(""), fallback);
  EXPECT_EQ(threads_for("2"), std::min(2u, hw));
  EXPECT_EQ(threads_for("1000000"), hw);
  EXPECT_EQ(StudyConfig::from_env().threads, fallback);
}

// ----------------------------------------------------------- perf model

TEST(PerfModel, CleanLinkFavorsSingleConnection) {
  PerfParams params;
  params.loss_rate = 0.0;
  const double one = page_fetch_time_ms(1500 * 1024, 1, params);
  const double eight = page_fetch_time_ms(1500 * 1024, 8, params);
  EXPECT_LT(one, eight * 1.05);  // 1 conn at least as good
}

TEST(PerfModel, HighLossFavorsMultipleConnections) {
  PerfParams params;
  params.loss_rate = 0.05;
  params.seed = 3;
  const double one = page_fetch_time_ms(1500 * 1024, 1, params);
  const double eight = page_fetch_time_ms(1500 * 1024, 8, params);
  EXPECT_GT(one, eight);  // the Goel/Manzoor crossover
}

TEST(PerfModel, DeterministicForSeed) {
  PerfParams params;
  params.loss_rate = 0.02;
  EXPECT_EQ(page_fetch_time_ms(1000000, 4, params),
            page_fetch_time_ms(1000000, 4, params));
}

TEST(PerfModel, MoreBytesTakeLonger) {
  PerfParams params;
  EXPECT_LT(page_fetch_time_ms(100 * 1024, 1, params),
            page_fetch_time_ms(5000 * 1024, 1, params));
}

TEST(PerfModel, HandshakeCostScalesWithRtts) {
  PerfParams fast;
  fast.handshake_rtts = 1.0;
  PerfParams slow;
  slow.handshake_rtts = 3.0;
  EXPECT_LT(page_fetch_time_ms(100 * 1024, 1, fast),
            page_fetch_time_ms(100 * 1024, 1, slow));
}

TEST(PerfModel, CubicRecoversFasterUnderLoss) {
  PerfParams reno;
  reno.loss_rate = 0.02;
  reno.seed = 5;
  PerfParams cubic = reno;
  cubic.algorithm = CcAlgorithm::kCubicLike;
  const double reno_time = page_fetch_time_ms(1500 * 1024, 1, reno);
  const double cubic_time = page_fetch_time_ms(1500 * 1024, 1, cubic);
  EXPECT_LT(cubic_time, reno_time);
}

TEST(PerfModel, CubicShrinksMultiConnectionAdvantage) {
  PerfParams reno;
  reno.loss_rate = 0.02;
  reno.seed = 7;
  PerfParams cubic = reno;
  cubic.algorithm = CcAlgorithm::kCubicLike;
  const double reno_gap = page_fetch_time_ms(1500 * 1024, 1, reno) /
                          page_fetch_time_ms(1500 * 1024, 8, reno);
  const double cubic_gap = page_fetch_time_ms(1500 * 1024, 1, cubic) /
                           page_fetch_time_ms(1500 * 1024, 8, cubic);
  EXPECT_LT(cubic_gap, reno_gap);
}

TEST(PerfModel, HpackBytesGrowWithConnectionSplit) {
  // The Marx et al. effect: every extra connection bootstraps its own
  // dictionary.
  const auto workload = make_header_workload(96, 4);
  const auto one = hpack_bytes(workload, 1);
  const auto four = hpack_bytes(workload, 4);
  const auto eight = hpack_bytes(workload, 8);
  EXPECT_LT(one, four);
  EXPECT_LE(four, eight);
}

TEST(PerfModel, HeaderWorkloadShape) {
  const auto workload = make_header_workload(10, 3);
  ASSERT_EQ(workload.size(), 10u);
  for (const auto& headers : workload) {
    bool has_authority = false;
    bool has_cookie = false;
    for (const auto& field : headers) {
      has_authority |= field.name == ":authority";
      has_cookie |= field.name == "cookie";
    }
    EXPECT_TRUE(has_authority);
    EXPECT_TRUE(has_cookie);
  }
}

}  // namespace
}  // namespace h2r::experiments

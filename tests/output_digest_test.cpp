// Byte pins for the study and the optimizer: the SHA-256 of every
// deterministic output at the golden configs must hold at any thread
// count (see output_digest.hpp for what is hashed and where the digests
// come from).
#include <gtest/gtest.h>

#include <string>

#include "experiments/study.hpp"
#include "json/json.hpp"
#include "optimize/optimize.hpp"
#include "output_digest.hpp"

namespace h2r::testing {
namespace {

TEST(OutputDigest, Sha256MatchesKnownAnswers) {
  EXPECT_EQ(sha256_hex(""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(sha256_hex("abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  // Two-block message (padding spills into a second block).
  EXPECT_EQ(
      sha256_hex("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

void expect_study_digests(double fault_rate, const StudyDigests& want) {
  for (const unsigned threads : {1u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const experiments::StudyResults r =
        experiments::run_study(golden_study_config(threads, fault_rate));
    EXPECT_EQ(sha256_hex(study_report_bytes(r)), want.reports);
    EXPECT_EQ(sha256_hex(study_summary_bytes(r)), want.summaries);
    EXPECT_EQ(sha256_hex(study_metric_bytes(r)), want.metrics);
  }
}

TEST(OutputDigest, FaultFreeStudyBytesArePinned) {
  expect_study_digests(0.0, kStudyFaultFree);
}

TEST(OutputDigest, FaultyStudyBytesArePinned) {
  expect_study_digests(0.25, kStudyFaulty);
}

TEST(OutputDigest, OptimizeJsonIsPinned) {
  for (const unsigned threads : {1u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    optimize::OptimizeConfig config;
    config.sites = 120;
    config.seed = 42;
    config.threads = threads;
    EXPECT_EQ(sha256_hex(json::write(
                  optimize::to_json(optimize::run_optimize(config)))),
              kOptimizeGolden);
  }
}

TEST(ThreadShape, EveryCampaignRunsItsOwnWorkers) {
  // Each campaign starts `threads` crawl workers and the study's three
  // campaigns run concurrently, so a study at N threads reports N
  // workers per campaign, and the optimizer's single campaign N.
  for (const unsigned threads : {1u, 3u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const experiments::StudyResults study =
        experiments::run_study(golden_study_config(threads, 0.0));
    EXPECT_EQ(study.alexa_summary.per_worker.size(), threads);
    EXPECT_EQ(study.nofetch_summary.per_worker.size(), threads);
    EXPECT_EQ(study.har_summary.per_worker.size(), threads);

    optimize::OptimizeConfig config;
    config.sites = 40;
    config.threads = threads;
    EXPECT_EQ(optimize::run_optimize(config).summary.per_worker.size(),
              threads);
  }
}

}  // namespace
}  // namespace h2r::testing

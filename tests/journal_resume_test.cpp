// End-to-end crash/resume tests for the journaled study engine.
//
// The contract under test: kill a journaled study after K committed
// chunks (possibly tearing the last frame), resume it — at ANY thread
// count, with or without fault injection — and the merged result is
// bit-identical to an uninterrupted run. This is the determinism contract
// (per-site state derived from (seed, site) alone; commutative merges)
// extended across a process boundary.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "experiments/study.hpp"
#include "journal/checkpoint.hpp"
#include "journal/journal.hpp"

namespace h2r::experiments {
namespace {

std::string temp_journal(const std::string& tag) {
  return std::string(::testing::TempDir()) + "/resume_" + tag + ".journal";
}

StudyConfig small_config(double fault_rate) {
  StudyConfig config;
  config.har_sites = 90;
  config.alexa_sites = 80;
  config.har_first_rank = 30;
  config.seed = 7;
  config.threads = 2;
  if (fault_rate > 0) config.faults = fault::FaultConfig::uniform(fault_rate);
  return config;
}

void expect_identical(const StudyResults& got, const StudyResults& want) {
  EXPECT_TRUE(got.har_endless == want.har_endless);
  EXPECT_TRUE(got.har_immediate == want.har_immediate);
  EXPECT_TRUE(got.alexa_exact == want.alexa_exact);
  EXPECT_TRUE(got.alexa_endless == want.alexa_endless);
  EXPECT_TRUE(got.nofetch_exact == want.nofetch_exact);
  EXPECT_TRUE(got.overlap_har_endless == want.overlap_har_endless);
  EXPECT_TRUE(got.overlap_alexa_endless == want.overlap_alexa_endless);
  EXPECT_TRUE(got.har_summary == want.har_summary);
  EXPECT_TRUE(got.alexa_summary == want.alexa_summary);
  EXPECT_TRUE(got.nofetch_summary == want.nofetch_summary);
  EXPECT_EQ(got.overlap_sites, want.overlap_sites);
}

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

/// Byte offset just past the header frame plus `entries` entry frames.
std::size_t offset_after(const std::string& data, std::size_t entries) {
  std::size_t offset = 0;
  for (std::size_t frame = 0; frame < entries + 1; ++frame) {
    offset += 8 + frame_length(data, offset);
  }
  return offset;
}

/// The crash/resume differential: clean run vs. journaled run killed
/// after half its chunks and resumed (optionally with a torn tail).
void crash_and_resume(double fault_rate, unsigned resume_threads,
                      bool torn_tail, const std::string& tag) {
  const StudyConfig clean_config = small_config(fault_rate);
  const StudyResults clean = run_study(clean_config);

  const std::string path = temp_journal(tag);
  StudyConfig journaled_config = clean_config;
  journaled_config.journal_path = path;
  const StudyResults journaled = run_study(journaled_config);
  expect_identical(journaled, clean);
  EXPECT_GT(journaled.journal_bytes, 0u);
  EXPECT_GT(journaled.journal_fsyncs, 1u);
  EXPECT_EQ(journaled.resumed_chunks, 0u);

  auto contents = journal::read_journal(path);
  ASSERT_TRUE(contents) << contents.error().message;
  ASSERT_GE(contents->entries.size(), 4u)
      << "config too small to test a mid-run crash";

  // "Crash": keep only the first half of the committed chunks...
  const std::size_t keep = contents->entries.size() / 2;
  const std::string data = slurp(path);
  std::size_t cut = offset_after(data, keep);
  if (torn_tail) {
    // ...and tear the next frame in half, as a real crash mid-append
    // would.
    const std::size_t next_end = cut + 8 + frame_length(data, cut);
    cut = (cut + next_end) / 2;
  }
  dump(path, data.substr(0, cut));

  StudyConfig resume_config = clean_config;
  resume_config.journal_path = path;
  resume_config.resume = true;
  resume_config.threads = resume_threads;
  const StudyResults resumed = run_study(resume_config);
  expect_identical(resumed, clean);
  EXPECT_EQ(resumed.resumed_chunks, keep);
  EXPECT_GT(resumed.resumed_sites, 0u);
}

TEST(JournalResume, CleanFaultFreeRunSurvivesCrashAtOneThread) {
  crash_and_resume(0.0, 1, false, "t1");
}

TEST(JournalResume, CleanFaultFreeRunSurvivesCrashAtTwoThreads) {
  crash_and_resume(0.0, 2, true, "t2");
}

TEST(JournalResume, CleanFaultFreeRunSurvivesCrashAtSevenThreads) {
  crash_and_resume(0.0, 7, true, "t7");
}

TEST(JournalResume, FaultyRunSurvivesCrashAtOneThread) {
  crash_and_resume(0.25, 1, true, "f1");
}

TEST(JournalResume, FaultyRunSurvivesCrashAtSevenThreads) {
  crash_and_resume(0.25, 7, false, "f7");
}

TEST(JournalResume, WatchdogDeadlineIsPartOfTheContract) {
  StudyConfig config = small_config(0.25);
  config.site_deadline = 2000;
  const StudyResults clean = run_study(config);

  const std::string path = temp_journal("watchdog");
  StudyConfig journaled_config = config;
  journaled_config.journal_path = path;
  const StudyResults journaled = run_study(journaled_config);
  expect_identical(journaled, clean);

  // A different deadline is a different experiment: resume must refuse.
  StudyConfig wrong = config;
  wrong.journal_path = path;
  wrong.resume = true;
  wrong.site_deadline = 0;
  EXPECT_THROW(run_study(wrong), std::runtime_error);

  // The matching deadline resumes (here: trivially, nothing to redo).
  StudyConfig right = config;
  right.journal_path = path;
  right.resume = true;
  const StudyResults resumed = run_study(right);
  expect_identical(resumed, clean);
}

TEST(JournalResume, ResumingACompleteJournalCrawlsNothing) {
  const StudyConfig config = small_config(0.0);
  const std::string path = temp_journal("complete");

  StudyConfig journaled_config = config;
  journaled_config.journal_path = path;
  const StudyResults journaled = run_study(journaled_config);

  StudyConfig resume_config = config;
  resume_config.journal_path = path;
  resume_config.resume = true;
  resume_config.threads = 3;
  const StudyResults resumed = run_study(resume_config);
  expect_identical(resumed, journaled);
  // Every site of every campaign came from the journal: 80 alexa + 80
  // nofetch + 90 har.
  EXPECT_EQ(resumed.resumed_sites, 250u);
}

TEST(JournalResume, FingerprintMismatchIsAHardError) {
  const StudyConfig config = small_config(0.0);
  const std::string path = temp_journal("mismatch");

  StudyConfig journaled_config = config;
  journaled_config.journal_path = path;
  run_study(journaled_config);

  StudyConfig wrong_seed = config;
  wrong_seed.journal_path = path;
  wrong_seed.resume = true;
  wrong_seed.seed = 8;
  EXPECT_THROW(run_study(wrong_seed), std::runtime_error);

  StudyConfig wrong_faults = config;
  wrong_faults.journal_path = path;
  wrong_faults.resume = true;
  wrong_faults.faults = fault::FaultConfig::uniform(0.5);
  EXPECT_THROW(run_study(wrong_faults), std::runtime_error);
}

TEST(JournalResume, ThreadCountIsNotPartOfTheFingerprint) {
  StudyConfig config = small_config(0.0);
  config.threads = 5;
  const std::string path = temp_journal("threads");

  StudyConfig journaled_config = config;
  journaled_config.journal_path = path;
  const StudyResults journaled = run_study(journaled_config);

  auto contents = journal::read_journal(path);
  ASSERT_TRUE(contents);
  const std::size_t keep = contents->entries.size() / 2;
  const std::string data = slurp(path);
  dump(path, data.substr(0, offset_after(data, keep)));

  StudyConfig resume_config = config;
  resume_config.journal_path = path;
  resume_config.resume = true;
  resume_config.threads = 1;
  const StudyResults resumed = run_study(resume_config);
  expect_identical(resumed, journaled);
}

/// Rewrites the journal at `path` through JournalWriter (so every frame
/// keeps a valid CRC), applying `edit` to the first chunk of `campaign`.
template <typename Edit>
void rewrite_first_chunk(const std::string& path, const std::string& campaign,
                         Edit edit) {
  auto contents = journal::read_journal(path);
  ASSERT_TRUE(contents) << contents.error().message;
  auto fingerprint = journal::header_fingerprint(contents->header);
  ASSERT_TRUE(fingerprint) << fingerprint.error().message;
  auto writer = journal::JournalWriter::create(path, *fingerprint);
  ASSERT_TRUE(writer) << writer.error().message;
  bool edited = false;
  for (const json::Value& entry : contents->entries) {
    auto chunk = journal::chunk_from_json(entry);
    ASSERT_TRUE(chunk) << chunk.error().message;
    if (!edited && chunk->campaign == campaign) {
      edit(*chunk);
      edited = true;
    }
    ASSERT_TRUE((*writer)->append(journal::to_json(*chunk)));
  }
  ASSERT_TRUE(edited) << "no '" << campaign << "' chunk to edit";
}

void expect_resume_refused(const StudyConfig& config,
                           const std::string& campaign,
                           const std::string& key) {
  try {
    run_study(config);
    ADD_FAILURE() << "resume accepted a chunk with a mismatched '" << key
                  << "' slot";
  } catch (const std::runtime_error& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("'" + campaign + "'"), std::string::npos)
        << message;
    EXPECT_NE(message.find("'" + key + "'"), std::string::npos) << message;
  }
}

TEST(JournalResume, ChunkSlotsMustMatchTheCampaign) {
  // A chunk's reports and tallies must be exactly its campaign's slots.
  // A chunk lacking a report would otherwise resume "successfully" with
  // that chunk's sites missing from the report.
  const StudyConfig config = small_config(0.0);
  const std::string path = temp_journal("slots");
  StudyConfig journaled_config = config;
  journaled_config.journal_path = path;
  run_study(journaled_config);
  const std::string pristine = slurp(path);

  StudyConfig resume_config = config;
  resume_config.journal_path = path;
  resume_config.resume = true;

  rewrite_first_chunk(path, "alexa", [](journal::ChunkCheckpoint& chunk) {
    std::erase_if(chunk.reports,
                  [](const auto& report) { return report.first == "exact"; });
  });
  expect_resume_refused(resume_config, "alexa", "exact");

  dump(path, pristine);
  rewrite_first_chunk(path, "har", [](journal::ChunkCheckpoint& chunk) {
    chunk.tallies.emplace_back("extra", core::PolicyTally{});
  });
  expect_resume_refused(resume_config, "har", "extra");

  // Control: the untouched journal resumes.
  dump(path, pristine);
  EXPECT_NO_THROW(run_study(resume_config));
}

}  // namespace
}  // namespace h2r::experiments

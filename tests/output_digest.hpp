// Pinned SHA-256 digests of the study's and the optimizer's deterministic
// outputs, shared by output_digest_test.cpp and streaming_crawl_test.cpp.
//
// Every crawl runs one way — streaming site generation, chunk windows
// folded through journal::ReportFold — so there is no second execution
// mode left to diff against. These digests are the reference instead:
// they were recorded from the study's former materialized, non-windowed
// engine, and every thread count must still land on them.
//
// The bytes hashed are the ones CI compares with `cmp`: full-fidelity
// report codec output, the journal's crawl-summary codec, and the
// deterministic metric snapshot as `h2r study --metrics` writes it.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>

#include "core/report_json.hpp"
#include "experiments/study.hpp"
#include "journal/checkpoint.hpp"
#include "json/json.hpp"
#include "obs/metrics.hpp"

namespace h2r::testing {

/// FIPS 180-4 SHA-256, lowercase hex.
inline std::string sha256_hex(std::string_view data) {
  static constexpr std::uint32_t kRound[64] = {
      0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
      0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
      0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
      0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
      0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
      0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
      0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
      0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
      0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
      0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
      0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};
  std::uint32_t state[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                            0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  auto rotr = [](std::uint32_t x, int n) {
    return (x >> n) | (x << (32 - n));
  };

  std::string message(data);
  const std::uint64_t bit_length =
      static_cast<std::uint64_t>(data.size()) * 8u;
  message += static_cast<char>(0x80);
  while (message.size() % 64 != 56) message += '\0';
  for (int shift = 56; shift >= 0; shift -= 8) {
    message += static_cast<char>((bit_length >> shift) & 0xffu);
  }

  for (std::size_t block = 0; block < message.size(); block += 64) {
    std::uint32_t w[64];
    for (std::size_t i = 0; i < 16; ++i) {
      w[i] = 0;
      for (std::size_t b = 0; b < 4; ++b) {
        w[i] = (w[i] << 8) |
               static_cast<unsigned char>(message[block + 4 * i + b]);
      }
    }
    for (std::size_t i = 16; i < 64; ++i) {
      const std::uint32_t s0 =
          rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const std::uint32_t s1 =
          rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }
    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
    for (std::size_t i = 0; i < 64; ++i) {
      const std::uint32_t t1 = h + (rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25)) +
                               ((e & f) ^ (~e & g)) + kRound[i] + w[i];
      const std::uint32_t t2 = (rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22)) +
                               ((a & b) ^ (a & c) ^ (b & c));
      h = g;
      g = f;
      f = e;
      e = d + t1;
      d = c;
      c = b;
      b = a;
      a = t1 + t2;
    }
    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }

  std::string hex;
  char byte[3];
  for (const std::uint32_t word : state) {
    for (int shift = 24; shift >= 0; shift -= 8) {
      std::snprintf(byte, sizeof byte, "%02x",
                    static_cast<unsigned>((word >> shift) & 0xffu));
      hex += byte;
    }
  }
  return hex;
}

/// Every report of the study through the full-fidelity codec, then the
/// overlap site count.
inline std::string study_report_bytes(const experiments::StudyResults& r) {
  std::string bytes;
  for (const core::AggregateReport* report :
       {&r.har_endless, &r.har_immediate, &r.alexa_exact, &r.alexa_endless,
        &r.nofetch_exact, &r.overlap_har_endless, &r.overlap_alexa_endless}) {
    bytes += json::write(core::to_json_full(*report));
    bytes += '\n';
  }
  bytes += std::to_string(r.overlap_sites);
  return bytes;
}

/// The three campaign summaries through the journal's summary codec
/// (measurement counters only; per-worker diagnostics are not encoded).
inline std::string study_summary_bytes(const experiments::StudyResults& r) {
  std::string bytes;
  for (const browser::CrawlSummary* summary :
       {&r.har_summary, &r.alexa_summary, &r.nofetch_summary}) {
    bytes += json::write(journal::to_json(*summary));
    bytes += '\n';
  }
  return bytes;
}

/// The deterministic metric snapshot exactly as `h2r study --metrics`
/// writes it.
inline std::string study_metric_bytes(const experiments::StudyResults& r) {
  json::WriteOptions opts;
  opts.pretty = true;
  return json::write(obs::to_json(r.metrics), opts);
}

/// The study_golden_test config (thread count aside).
inline experiments::StudyConfig golden_study_config(unsigned threads,
                                                    double fault_rate) {
  experiments::StudyConfig config;
  config.har_sites = 120;
  config.alexa_sites = 60;
  config.har_first_rank = 30;
  config.seed = 42;
  config.threads = threads;
  if (fault_rate > 0) config.faults = fault::FaultConfig::uniform(fault_rate);
  return config;
}

struct StudyDigests {
  const char* reports;
  const char* summaries;
  const char* metrics;
};

/// golden_study_config(*, 0.0).
inline constexpr StudyDigests kStudyFaultFree = {
    "310b766721c5204d66d32e197c40e6416d247b5d5004326d661453c79a294c5a",
    "11c542a2dfbde03ac11fe3e736633d2f7c26d4feac23f5f0ce970e88ace5e023",
    "3b85da530fb64e49a617177b84e480151c98d69724290a9d9cb185dd52510149"};
/// golden_study_config(*, 0.25).
inline constexpr StudyDigests kStudyFaulty = {
    "2eb475e12b6c0faa513e98932120d7dbae6e9b9f6b915786e83d3f744e9baba6",
    "b9822b8b90d123e6a3c4bb29f748d136e3fb42ebabdf582dfa10f1760273e897",
    "2974099788d99413b6ef45f43b15cc61d7095130c720083585dd600a757e7685"};
/// golden_study_config(*, 0.0) with hist_budget = 8.
inline constexpr StudyDigests kStudyBudget8 = {
    "72315c84be793de6498a6eb4ffac0f38fe2758c6699048b1ea677021b4ec7410",
    "11c542a2dfbde03ac11fe3e736633d2f7c26d4feac23f5f0ce970e88ace5e023",
    "79cfa6aea64b69daa5306bf31603abdce2d1554c7ee7c6fe4213473995643842"};
/// json::write(optimize::to_json(...)) at the optimize_test golden config
/// (120 sites, seed 42, every knob).
inline constexpr const char* kOptimizeGolden =
    "ffeeda5eccb1cdc1902d2d711aa6e934d4488d15e726ee4401a21232a49febdc";

}  // namespace h2r::testing

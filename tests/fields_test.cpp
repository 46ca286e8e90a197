// Properties of every table-backed record (src/util/fields.hpp), checked
// by walking each record's own field table: a member added later is
// filled and exercised without editing this file.
//
//   * from_json(to_json(x)) == x, through Values and through bytes;
//   * merge(x, {}) == x and merge(a, b) == merge(b, a);
//   * a malformed document names the record and the key path.
#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "browser/crawl.hpp"
#include "core/report_json.hpp"
#include "journal/checkpoint.hpp"
#include "json/fields.hpp"
#include "pool/pool.hpp"

namespace h2r {
namespace {

template <typename R>
struct UseOf;
template <typename M, unsigned U>
struct UseOf<util::Row<M, U>> {
  static constexpr unsigned value = U;
};
template <typename... R>
struct UseOf<util::Group<R...>> {
  static constexpr unsigned value = (UseOf<R>::value | ... | 0u);
};

template <typename Table>
struct TableUse;
template <typename... R>
struct TableUse<std::tuple<R...>> {
  static constexpr unsigned value = (UseOf<R>::value | ... | 0u);
};

/// The union of every row's use flags.
template <typename T>
constexpr unsigned kTableUse = TableUse<util::Table<T>>::value;

/// Fills every used member with distinct non-zero values. Numbers depend
/// on the seed; strings and one key per container depend only on the
/// position in the walk, so fills with different seeds share keys (and
/// exercise map sums) and agree on strings (the first-non-empty merge of
/// OriginTally::issuer is then commutative). Each container also gets a
/// key of its own seed (exercising unions).
class Filler {
 public:
  explicit Filler(std::uint64_t seed) : seed_(seed) {}

  template <typename T>
  void fill(T& value) {
    if constexpr (std::is_same_v<T, std::uint64_t>) {
      value = seed_ * 1000 + next_++;
    } else if constexpr (std::is_same_v<T, std::string>) {
      value = "s" + std::to_string(next_++);
    } else if constexpr (std::is_same_v<T, stats::TimeHistogram>) {
      value.add(static_cast<util::SimTime>(seed_ * 1000 + next_++), seed_);
      value.add(static_cast<util::SimTime>(next_++), 1);
    } else if constexpr (util::Record<T>) {
      fill_rows(fields(value),
                std::make_index_sequence<std::tuple_size_v<util::Table<T>>>{});
    } else if constexpr (util::IsArray<T>::value) {
      for (auto& item : value) fill(item);
    } else if constexpr (util::IsSet<T>::value) {
      for (std::uint64_t salt : {std::uint64_t{0}, seed_}) {
        value.insert("d" + std::to_string(salt));
      }
    } else if constexpr (util::IsMap<T>::value) {
      for (std::uint64_t salt : {std::uint64_t{0}, seed_}) {
        fill(value[key<typename T::key_type>(salt)]);
      }
    } else {
      static_assert(util::IsVector<T>::value, "no filler for this type");
      using Item = typename T::value_type;
      if constexpr (json::IsPair<Item>::value) {
        for (std::uint64_t salt : {std::uint64_t{0}, seed_}) {
          using K = typename Item::first_type;
          value.emplace_back(key<K>(salt + 1), typename Item::second_type{});
          fill(value.back().second);
        }
      } else {
        value.emplace_back();  // per_worker: appended, never compared
      }
    }
  }

 private:
  template <typename K>
  static K key(std::uint64_t salt) {
    if constexpr (std::is_same_v<K, std::string>) {
      return "k" + std::to_string(salt);
    } else if constexpr (std::is_same_v<K, core::Cause>) {
      return core::kAllCauses[salt % std::size(core::kAllCauses)];
    } else {
      return static_cast<K>(salt);
    }
  }

  template <typename M, unsigned U>
  void fill_row(const util::Row<M, U>& row) {
    if constexpr (U != util::kNone) fill(row.member);
  }

  template <typename... R>
  void fill_row(const util::Group<R...>& group) {
    fill_rows(group.rows, std::index_sequence_for<R...>{});
  }

  template <typename Rows, std::size_t... I>
  void fill_rows(const Rows& rows, std::index_sequence<I...>) {
    (fill_row(std::get<I>(rows)), ...);
  }

  std::uint64_t seed_;
  std::uint64_t next_ = 1;
};

template <typename T>
T filled(std::uint64_t seed) {
  T value{};
  Filler(seed).fill(value);
  return value;
}

template <typename T>
class FieldTable : public ::testing::Test {};

using Records =
    ::testing::Types<core::AggregateReport, core::CauseTally,
                     core::OriginTally, core::IssuerTally, core::AsTally,
                     core::PolicyTally, browser::CrawlSummary,
                     fault::FailureSummary, har::ImportStats, pool::PoolStats,
                     journal::ChunkCheckpoint>;
TYPED_TEST_SUITE(FieldTable, Records);

TYPED_TEST(FieldTable, CodecRoundTripsEveryRow) {
  using T = TypeParam;
  if constexpr ((kTableUse<T> & util::kSerialized) != 0) {
    const T x = filled<T>(3);
    const json::Value encoded = json::encode(x);
    const auto back = json::decode<T>(encoded, "T");
    ASSERT_TRUE(back.has_value()) << back.error().message;
    EXPECT_TRUE(*back == x);
    const auto reparsed = json::parse(json::write(encoded));
    ASSERT_TRUE(reparsed.has_value());
    const auto back2 = json::decode<T>(*reparsed, "T");
    ASSERT_TRUE(back2.has_value()) << back2.error().message;
    EXPECT_TRUE(*back2 == x);
    EXPECT_FALSE(T{} == x);  // the fill reached a compared member
  }
}

TYPED_TEST(FieldTable, MergeHasAnIdentityAndCommutes) {
  using T = TypeParam;
  if constexpr ((kTableUse<T> & util::kMerged) != 0) {
    const T a = filled<T>(1);
    const T b = filled<T>(2);
    T with_empty = a;
    util::merge_fields(with_empty, T{});
    EXPECT_TRUE(with_empty == a);
    T ab = a;
    util::merge_fields(ab, b);
    T ba = b;
    util::merge_fields(ba, a);
    EXPECT_TRUE(ab == ba);
    EXPECT_FALSE(ab == a);
  }
}

/// Sets the value at `path` (object keys) inside `doc`.
json::Value with(json::Value doc, std::vector<std::string> path,
                 json::Value leaf) {
  json::Value* at = &doc;
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    at = at->mutable_object().find(path[i]);
    EXPECT_NE(at, nullptr) << path[i];
    if (at == nullptr) return doc;
  }
  at->mutable_object().set(path.back(), std::move(leaf));
  return doc;
}

template <typename T>
std::string decode_error(const json::Value& doc, const char* root) {
  const auto decoded = json::decode<T>(doc, root);
  EXPECT_FALSE(decoded.has_value());
  return decoded.has_value() ? std::string() : decoded.error().message;
}

TEST(FieldCodec, ErrorsNameTheRecordAndKeyPath) {
  core::AggregateReport report;
  report.by_cause[core::Cause::kIp] = {1, 2};
  report.ip_origins["a.example"].previous_origins["b.example"] = 3;
  report.cert_issuers["CA"].domains = {"c.example"};
  report.ip_ases["AS1"].connections = 4;
  const json::Value good = json::encode(report);
  ASSERT_TRUE(json::decode<core::AggregateReport>(good, "AggregateReport"));

  const auto report_error = [&](std::vector<std::string> path,
                                json::Value leaf) {
    return decode_error<core::AggregateReport>(
        with(good, std::move(path), std::move(leaf)), "AggregateReport");
  };
  // AggregateReport and OriginTally.
  EXPECT_EQ(report_error({"ip_origins", "a.example", "previous", "b.example"},
                         json::Value{0}),
            "AggregateReport.ip_origins[\"a.example\"].previous"
            "[\"b.example\"]: count must be positive");
  EXPECT_EQ(report_error({"ip_origins", "a.example", "issuer"},
                         json::Value{7}),
            "AggregateReport.ip_origins[\"a.example\"].issuer: expected a "
            "string");
  // CauseTally, and a cause key that names no cause.
  EXPECT_EQ(report_error({"causes", "IP", "sites"}, json::Value{-1}),
            "AggregateReport.causes[\"IP\"].sites: expected a non-negative "
            "integer");
  EXPECT_EQ(report_error({"causes", "GREMLINS"}, json::Value{json::Object{}}),
            "AggregateReport.causes[\"GREMLINS\"]: unknown cause: GREMLINS");
  // IssuerTally and AsTally.
  EXPECT_EQ(report_error({"cert_issuers", "CA", "domains"},
                         json::Value{json::Array{json::Value{1}}}),
            "AggregateReport.cert_issuers[\"CA\"].domains[0]: expected a "
            "string");
  EXPECT_EQ(report_error({"ip_ases", "AS1", "connections"}, json::Value{}),
            "AggregateReport.ip_ases[\"AS1\"].connections: missing");

  core::PolicyTally tally;
  tally.remaining_by_cause[core::Cause::kCert] = 1;
  EXPECT_EQ(decode_error<core::PolicyTally>(
                with(json::encode(tally), {"remaining_by_cause", "CRED"},
                     json::Value{1.5}),
                "PolicyTally"),
            "PolicyTally.remaining_by_cause[\"CRED\"]: expected a "
            "non-negative integer");

  // CrawlSummary, FailureSummary and ImportStats.
  const json::Value summary = json::encode(browser::CrawlSummary{});
  EXPECT_EQ(decode_error<browser::CrawlSummary>(
                with(summary, {"failures", "injected", "goaway"},
                     json::Value{-1}),
                "CrawlSummary"),
            "CrawlSummary.failures.injected.goaway: expected a non-negative "
            "integer");
  EXPECT_EQ(decode_error<fault::FailureSummary>(
                with(json::encode(fault::FailureSummary{}), {"injected"},
                     json::Value{json::Array{}}),
                "FailureSummary"),
            "FailureSummary.injected: expected an object");
  EXPECT_EQ(decode_error<browser::CrawlSummary>(
                with(summary, {"har_stats", "h3_entries"}, json::Value{"x"}),
                "CrawlSummary"),
            "CrawlSummary.har_stats.h3_entries: expected a non-negative "
            "integer");

  // ChunkCheckpoint: the campaign and range checks, and a nested report.
  journal::ChunkCheckpoint chunk;
  chunk.campaign = "alexa";
  chunk.ranges = {{0, 4}};
  chunk.reports.emplace_back("exact", report);
  const json::Value checkpoint = json::encode(chunk);
  ASSERT_TRUE(json::decode<journal::ChunkCheckpoint>(checkpoint, "C"));
  EXPECT_EQ(decode_error<journal::ChunkCheckpoint>(
                with(checkpoint, {"campaign"}, json::Value{""}),
                "ChunkCheckpoint"),
            "ChunkCheckpoint.campaign: must not be empty");
  EXPECT_EQ(decode_error<journal::ChunkCheckpoint>(
                with(checkpoint, {"ranges"},
                     json::parse("[[3, 0]]").value()),
                "ChunkCheckpoint"),
            "ChunkCheckpoint.ranges[0]: count must be positive");
  EXPECT_EQ(decode_error<journal::ChunkCheckpoint>(
                with(checkpoint, {"reports", "exact", "h2_sites"},
                     json::Value{2.5}),
                "ChunkCheckpoint"),
            "ChunkCheckpoint.reports[\"exact\"].h2_sites: expected a "
            "non-negative integer");
}

TEST(FieldCodec, FaultLedgerKeysAreTheKindNames) {
  const json::Value ledger = json::encode(fault::FailureSummary{});
  const json::Object& injected = ledger["injected"].as_object();
  ASSERT_EQ(injected.size(), fault::kFaultKindCount);
  std::size_t i = 0;
  for (const auto& [key, count] : injected) {
    EXPECT_EQ(key, fault::to_string(static_cast<fault::FaultKind>(i++)));
    EXPECT_EQ(count.as_int(-1), 0);
  }
}

}  // namespace
}  // namespace h2r

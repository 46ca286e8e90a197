// Field tables: each mergeable or journaled record defines its members
// once, as an ordered table, and merge, operator== and the JSON codec
// (json/fields.hpp) are generated from it (DESIGN §15).
//
// A record opts in with a table function beside its struct:
//
//   auto fields(util::RecordOf<Tally> auto& t) {
//     auto& [sites, by_cause, per_worker] = t;
//     return std::tuple(util::row("sites", sites),
//                       util::row("causes", by_cause),
//                       util::row<util::kMerged>("per_worker", per_worker));
//   }
//
// The structured binding names every member, so a member added without
// a row fails the build ("only 3 names provided for structured binding",
// "'Tally' decomposes into 4 elements"). Rows are in JSON key order.
//
// How a member merges follows from its type: integers add, maps merge
// their values key by key (so counter maps sum), sets unite, vectors
// append, a string keeps the first non-empty value, arrays merge element
// by element, records recurse through their own table, and anything else
// (stats::TimeHistogram) uses its member merge().
#pragma once

#include <array>
#include <concepts>
#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

namespace h2r::util {

/// What a row's member takes part in (bit set).
enum Use : unsigned {
  kNone = 0,
  kMerged = 1u << 0,      // folded by merge_fields
  kCompared = 1u << 1,    // compared by fields_equal
  kSerialized = 1u << 2,  // written and read by the JSON codec
  kOptional = 1u << 3,    // codec: omitted when empty; absent reads empty
  kNonEmpty = 1u << 4,    // codec: an empty value is rejected on read
  kAll = kMerged | kCompared | kSerialized,
};

template <typename M, unsigned U>
struct Row {
  static constexpr unsigned kUse = U;
  std::string_view key;
  M& member;
};

template <unsigned U = kAll, typename M>
Row<M, U> row(std::string_view key, M& member) {
  return {key, member};
}

/// Rows serialized together as one nested JSON object under `key`.
template <typename... Rows>
struct Group {
  std::string_view key;
  std::tuple<Rows...> rows;
};

template <typename... Rows>
Group<Rows...> group(std::string_view key, Rows... rows) {
  return {key, {rows...}};
}

/// Constrains a table function to one record, const or not.
template <typename S, typename T>
concept RecordOf = std::same_as<std::remove_const_t<S>, T>;

template <typename T>
concept Record = requires(T& t) { fields(t); };

template <typename T>
using Table = decltype(fields(std::declval<T&>()));

template <typename T>
struct IsMap : std::false_type {};
template <typename K, typename V>
struct IsMap<std::map<K, V>> : std::true_type {};

template <typename T>
struct IsSet : std::false_type {};
template <typename V>
struct IsSet<std::set<V>> : std::true_type {};

template <typename T>
struct IsVector : std::false_type {};
template <typename V>
struct IsVector<std::vector<V>> : std::true_type {};

template <typename T>
struct IsArray : std::false_type {};
template <typename V, std::size_t N>
struct IsArray<std::array<V, N>> : std::true_type {};

template <Record T>
void merge_fields(T& dst, const T& src);

template <typename T>
void merge_value(T& dst, const T& src) {
  if constexpr (std::is_arithmetic_v<T>) {
    dst += src;
  } else if constexpr (Record<T>) {
    merge_fields(dst, src);
  } else if constexpr (std::is_same_v<T, std::string>) {
    if (dst.empty()) dst = src;
  } else if constexpr (IsMap<T>::value) {
    for (const auto& [key, value] : src) merge_value(dst[key], value);
  } else if constexpr (IsSet<T>::value) {
    dst.insert(src.begin(), src.end());
  } else if constexpr (IsVector<T>::value) {
    dst.insert(dst.end(), src.begin(), src.end());
  } else if constexpr (IsArray<T>::value) {
    for (std::size_t i = 0; i < dst.size(); ++i) merge_value(dst[i], src[i]);
  } else {
    dst.merge(src);
  }
}

template <typename M, typename N, unsigned U>
void merge_row(const Row<M, U>& dst, const Row<N, U>& src) {
  if constexpr ((U & kMerged) != 0) merge_value(dst.member, src.member);
}

template <typename... D, typename... S>
void merge_row(const Group<D...>& dst, const Group<S...>& src);

template <typename D, typename S, std::size_t... I>
void merge_rows(const D& dst, const S& src, std::index_sequence<I...>) {
  (merge_row(std::get<I>(dst), std::get<I>(src)), ...);
}

template <typename... D, typename... S>
void merge_row(const Group<D...>& dst, const Group<S...>& src) {
  merge_rows(dst.rows, src.rows, std::index_sequence_for<D...>{});
}

/// Folds `src` into `dst` row by row (kMerged rows only). Flattened so
/// the row tuples fold away: merges run per request and per page load.
template <Record T>
[[gnu::flatten]] void merge_fields(T& dst, const T& src) {
  merge_rows(fields(dst), fields(src),
             std::make_index_sequence<std::tuple_size_v<Table<T>>>{});
}

template <typename M, unsigned U>
bool equal_row(const Row<M, U>& a, const Row<M, U>& b) {
  if constexpr ((U & kCompared) != 0) return a.member == b.member;
  return true;
}

template <typename... R>
bool equal_row(const Group<R...>& a, const Group<R...>& b);

template <typename R, std::size_t... I>
bool equal_rows(const R& a, const R& b, std::index_sequence<I...>) {
  return (equal_row(std::get<I>(a), std::get<I>(b)) && ...);
}

template <typename... R>
bool equal_row(const Group<R...>& a, const Group<R...>& b) {
  return equal_rows(a.rows, b.rows, std::index_sequence_for<R...>{});
}

/// True when every kCompared row is equal.
template <Record T>
[[gnu::flatten]] bool fields_equal(const T& a, const T& b) {
  return equal_rows(fields(a), fields(b),
                    std::make_index_sequence<std::tuple_size_v<Table<T>>>{});
}

}  // namespace h2r::util

// The JSON codec generated from field tables (util/fields.hpp).
//
// A record is an object with one key per kSerialized row, in row order;
// a util::group is a nested object. Member types map as follows:
//   unsigned integer       JSON integer >= 0
//   std::string            JSON string
//   record                 object, through its own table
//   std::set<V>            array
//   map / vector of pairs  integer keys: array of [key, value] pairs;
//                          other keys: object (Codec<K> names enum keys)
//   anything else          Codec<T> (enums, histograms)
// An integer value inside a pair container is a count and must be
// positive. Decoding is strict: a missing key or a mistyped value is an
// error naming the record and the key path, e.g.
//   AggregateReport.ip_origins["a.example"].previous["b.example"]: ...
// Unknown keys are ignored.
#pragma once

#include <concepts>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>

#include "json/json.hpp"
#include "util/expected.hpp"
#include "util/fields.hpp"

namespace h2r::json {

/// Leaf types the generic cases do not cover specialize Codec<T> with
///   static Value encode(const T&);
///   static util::Expected<T> decode(const Value&);
template <typename T>
struct Codec;

template <typename T>
struct IsPair : std::false_type {};
template <typename K, typename V>
struct IsPair<std::pair<K, V>> : std::true_type {};

template <typename T>
concept PairContainer =
    util::IsMap<T>::value ||
    (util::IsVector<T>::value && IsPair<typename T::value_type>::value);

/// Records ": why" as a decode error; returns false.
inline bool reject(std::string& error, std::string_view why) {
  error = ": ";
  error += why;
  return false;
}

template <typename T>
Value encode(const T& value);

/// Reads `value` into `out`. On failure `error` holds the key path below
/// `value` followed by ": why"; each caller prepends its own segment.
template <typename T>
bool decode_into(const Value& value, T& out, std::string& error);

template <typename M, unsigned U>
void write_row(Object& out, const util::Row<M, U>& row) {
  if constexpr ((U & util::kSerialized) != 0) {
    if constexpr ((U & util::kOptional) != 0) {
      if (row.member.empty()) return;
    }
    out.set(std::string(row.key), encode(row.member));
  }
}

template <typename... R>
void write_row(Object& out, const util::Group<R...>& group);

template <typename Rows, std::size_t... I>
void write_rows(Object& out, const Rows& rows, std::index_sequence<I...>) {
  (write_row(out, std::get<I>(rows)), ...);
}

template <typename... R>
void write_row(Object& out, const util::Group<R...>& group) {
  Object nested;
  write_rows(nested, group.rows, std::index_sequence_for<R...>{});
  out.set(std::string(group.key), Value{std::move(nested)});
}

template <typename M, unsigned U>
bool read_row(const Object& in, const util::Row<M, U>& row,
              std::string& error) {
  if constexpr ((U & util::kSerialized) != 0) {
    const Value* field = in.find(row.key);
    bool ok = false;
    if (field == nullptr || field->is_null()) {
      if constexpr ((U & util::kOptional) != 0) return true;
      reject(error, "missing");
    } else {
      ok = decode_into(*field, row.member, error);
      if constexpr ((U & util::kNonEmpty) != 0) {
        if (ok && row.member.empty()) {
          ok = reject(error, "must not be empty");
        }
      }
    }
    if (!ok) error.insert(0, "." + std::string(row.key));
    return ok;
  }
  return true;
}

template <typename... R>
bool read_row(const Object& in, const util::Group<R...>& group,
              std::string& error);

template <typename Rows, std::size_t... I>
bool read_rows(const Object& in, const Rows& rows, std::string& error,
               std::index_sequence<I...>) {
  return (read_row(in, std::get<I>(rows), error) && ...);
}

template <typename... R>
bool read_row(const Object& in, const util::Group<R...>& group,
              std::string& error) {
  const Value* nested = in.find(group.key);
  if (nested != nullptr && nested->is_object()
          ? read_rows(nested->as_object(), group.rows, error,
                      std::index_sequence_for<R...>{})
          : reject(error, "expected an object")) {
    return true;
  }
  error.insert(0, "." + std::string(group.key));
  return false;
}

template <typename T>
Value encode(const T& value) {
  if constexpr (std::unsigned_integral<T>) {
    return Value{static_cast<std::int64_t>(value)};
  } else if constexpr (std::is_same_v<T, std::string>) {
    return Value{value};
  } else if constexpr (util::Record<T>) {
    Object out;
    write_rows(out, fields(value),
               std::make_index_sequence<
                   std::tuple_size_v<util::Table<const T>>>{});
    return Value{std::move(out)};
  } else if constexpr (PairContainer<T>) {
    using K = std::remove_const_t<typename T::value_type::first_type>;
    if constexpr (std::is_integral_v<K>) {
      Array out;
      for (const auto& [key, item] : value) {
        out.emplace_back(Array{encode(key), encode(item)});
      }
      return Value{std::move(out)};
    } else {
      Object out;
      for (const auto& [key, item] : value) {
        out.set(encode(key).as_string(), encode(item));
      }
      return Value{std::move(out)};
    }
  } else if constexpr (util::IsSet<T>::value) {
    Array out;
    for (const auto& item : value) out.emplace_back(encode(item));
    return Value{std::move(out)};
  } else {
    return Codec<T>::encode(value);
  }
}

/// One [key, value] pair or one object member of a pair container.
template <typename C, typename K, typename V>
bool insert_pair(C& out, K key, V item, std::string& error) {
  if constexpr (std::is_integral_v<V>) {
    if (item == 0) return reject(error, "count must be positive");
  }
  if constexpr (util::IsMap<C>::value) {
    if (!out.emplace(std::move(key), std::move(item)).second) {
      return reject(error, "duplicate key");
    }
  } else {
    out.emplace_back(std::move(key), std::move(item));
  }
  return true;
}

template <typename T>
bool decode_into(const Value& value, T& out, std::string& error) {
  if constexpr (std::unsigned_integral<T>) {
    if (!value.is_int() || value.as_int() < 0) {
      return reject(error, "expected a non-negative integer");
    }
    out = static_cast<T>(value.as_int());
    return true;
  } else if constexpr (std::is_same_v<T, std::string>) {
    if (!value.is_string()) return reject(error, "expected a string");
    out = value.as_string();
    return true;
  } else if constexpr (util::Record<T>) {
    if (!value.is_object()) return reject(error, "expected an object");
    return read_rows(
        value.as_object(), fields(out), error,
        std::make_index_sequence<std::tuple_size_v<util::Table<T>>>{});
  } else if constexpr (PairContainer<T>) {
    using K = std::remove_const_t<typename T::value_type::first_type>;
    using V = typename T::value_type::second_type;
    if constexpr (std::is_integral_v<K>) {
      if (!value.is_array()) return reject(error, "expected an array");
      const Array& pairs = value.as_array();
      for (std::size_t i = 0; i < pairs.size(); ++i) {
        K key{};
        V item{};
        if (!(pairs[i].is_array() && pairs[i].as_array().size() == 2
                  ? decode_into(pairs[i].at(0), key, error) &&
                        decode_into(pairs[i].at(1), item, error) &&
                        insert_pair(out, key, std::move(item), error)
                  : reject(error, "expected a [key, value] pair"))) {
          error.insert(0, "[" + std::to_string(i) + "]");
          return false;
        }
      }
      return true;
    } else {
      if (!value.is_object()) return reject(error, "expected an object");
      for (const auto& [name, item_json] : value.as_object()) {
        K key{};
        V item{};
        if (!(decode_into(Value{name}, key, error) &&
              decode_into(item_json, item, error) &&
              insert_pair(out, std::move(key), std::move(item), error))) {
          error.insert(0, "[\"" + name + "\"]");
          return false;
        }
      }
      return true;
    }
  } else if constexpr (util::IsSet<T>::value) {
    if (!value.is_array()) return reject(error, "expected an array");
    const Array& items = value.as_array();
    for (std::size_t i = 0; i < items.size(); ++i) {
      typename T::value_type item{};
      if (!decode_into(items[i], item, error)) {
        error.insert(0, "[" + std::to_string(i) + "]");
        return false;
      }
      out.insert(std::move(item));
    }
    return true;
  } else {
    auto parsed = Codec<T>::decode(value);
    if (!parsed) return reject(error, parsed.error().message);
    out = std::move(*parsed);
    return true;
  }
}

/// Strict decoder for a table-backed record; errors read
/// "<root><key path>: why".
template <util::Record T>
util::Expected<T> decode(const Value& value, std::string_view root) {
  T out;
  std::string error;
  if (!decode_into(value, out, error)) {
    return util::unexpected(util::Error{std::string(root) + error});
  }
  return out;
}

}  // namespace h2r::json

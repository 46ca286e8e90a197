// Minimal JSON document model, parser and writer.
//
// This exists as the substrate for the HAR module (HTTP Archive files are
// JSON). It supports the full JSON grammar (RFC 8259) with UTF-8 pass-through
// and \uXXXX escapes (including surrogate pairs), preserves object key
// insertion order (HAR consumers expect stable output), and distinguishes
// integers from doubles where the input allows it.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/expected.hpp"

namespace h2r::json {

class Value;

/// An ordered object: preserves insertion order of keys, with O(log n)
/// lookup via a side index.
class Object {
 public:
  using Entry = std::pair<std::string, Value>;

  Object() = default;
  Object(const Object& other);
  Object& operator=(const Object& other);
  Object(Object&&) noexcept = default;
  Object& operator=(Object&&) noexcept = default;
  ~Object() = default;

  /// Inserts or overwrites `key`.
  Value& set(std::string key, Value value);

  /// Returns the value for `key`, or nullptr.
  const Value* find(std::string_view key) const noexcept;
  Value* find(std::string_view key) noexcept;

  bool contains(std::string_view key) const noexcept {
    return find(key) != nullptr;
  }

  std::size_t size() const noexcept { return entries_.size(); }
  bool empty() const noexcept { return entries_.empty(); }

  auto begin() const noexcept { return entries_.begin(); }
  auto end() const noexcept { return entries_.end(); }

  friend bool operator==(const Object& a, const Object& b);

 private:
  void rebuild_index();

  std::vector<Entry> entries_;
  std::map<std::string, std::size_t, std::less<>> index_;
};

using Array = std::vector<Value>;

enum class Type { kNull, kBool, kInt, kDouble, kString, kArray, kObject };

/// A JSON value. Value-semantic; arrays and objects are held by value.
class Value {
 public:
  Value() noexcept : type_(Type::kNull) {}
  Value(std::nullptr_t) noexcept : type_(Type::kNull) {}
  Value(bool b) noexcept : type_(Type::kBool), bool_(b) {}
  Value(int i) noexcept : type_(Type::kInt), int_(i) {}
  Value(std::int64_t i) noexcept : type_(Type::kInt), int_(i) {}
  Value(std::uint64_t u) noexcept
      : type_(Type::kInt), int_(static_cast<std::int64_t>(u)) {}
  Value(double d) noexcept : type_(Type::kDouble), double_(d) {}
  Value(const char* s) : type_(Type::kString), string_(s) {}
  Value(std::string s) noexcept : type_(Type::kString), string_(std::move(s)) {}
  Value(std::string_view s) : type_(Type::kString), string_(s) {}
  Value(Array a) noexcept : type_(Type::kArray), array_(std::move(a)) {}
  Value(Object o) noexcept : type_(Type::kObject), object_(std::move(o)) {}

  Type type() const noexcept { return type_; }
  bool is_null() const noexcept { return type_ == Type::kNull; }
  bool is_bool() const noexcept { return type_ == Type::kBool; }
  bool is_int() const noexcept { return type_ == Type::kInt; }
  bool is_double() const noexcept { return type_ == Type::kDouble; }
  bool is_number() const noexcept { return is_int() || is_double(); }
  bool is_string() const noexcept { return type_ == Type::kString; }
  bool is_array() const noexcept { return type_ == Type::kArray; }
  bool is_object() const noexcept { return type_ == Type::kObject; }

  bool as_bool(bool fallback = false) const noexcept {
    return is_bool() ? bool_ : fallback;
  }
  std::int64_t as_int(std::int64_t fallback = 0) const noexcept {
    if (is_int()) return int_;
    if (is_double()) return static_cast<std::int64_t>(double_);
    return fallback;
  }
  double as_double(double fallback = 0.0) const noexcept {
    if (is_double()) return double_;
    if (is_int()) return static_cast<double>(int_);
    return fallback;
  }
  const std::string& as_string() const noexcept {
    static const std::string kEmpty;
    return is_string() ? string_ : kEmpty;
  }
  const Array& as_array() const noexcept {
    static const Array kEmpty;
    return is_array() ? array_ : kEmpty;
  }
  const Object& as_object() const noexcept {
    static const Object kEmpty;
    return is_object() ? object_ : kEmpty;
  }
  Array& mutable_array() noexcept { return array_; }
  Object& mutable_object() noexcept { return object_; }

  /// Object member access; returns a null Value for misses/non-objects.
  const Value& operator[](std::string_view key) const noexcept;

  /// Array element access; returns a null Value when out of range.
  const Value& at(std::size_t i) const noexcept;

  friend bool operator==(const Value& a, const Value& b);

 private:
  Type type_;
  bool bool_ = false;
  std::int64_t int_ = 0;
  double double_ = 0.0;
  std::string string_;
  Array array_;
  Object object_;
};

/// Parses a complete JSON document. Trailing non-whitespace is an error.
util::Expected<Value> parse(std::string_view text);

struct WriteOptions {
  bool pretty = false;
  int indent = 2;
};

/// Serializes `value` to a JSON string.
std::string write(const Value& value, const WriteOptions& opts = {});

/// Writes `value`, pretty or compact, and a newline to the file at
/// `path`; the error ("cannot write <path>") covers opening, writing and
/// closing.
util::Expected<bool> write_file(const std::string& path, const Value& value,
                                bool pretty);

}  // namespace h2r::json

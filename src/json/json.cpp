#include "json/json.hpp"

#include <cassert>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>

namespace h2r::json {

// ---------------------------------------------------------------- Object

Object::Object(const Object& other) : entries_(other.entries_) {
  rebuild_index();
}

Object& Object::operator=(const Object& other) {
  if (this != &other) {
    entries_ = other.entries_;
    rebuild_index();
  }
  return *this;
}

void Object::rebuild_index() {
  index_.clear();
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    index_.emplace(entries_[i].first, i);
  }
}

Value& Object::set(std::string key, Value value) {
  if (auto it = index_.find(key); it != index_.end()) {
    entries_[it->second].second = std::move(value);
    return entries_[it->second].second;
  }
  entries_.emplace_back(std::move(key), std::move(value));
  index_.emplace(entries_.back().first, entries_.size() - 1);
  return entries_.back().second;
}

const Value* Object::find(std::string_view key) const noexcept {
  const auto it = index_.find(key);
  return it == index_.end() ? nullptr : &entries_[it->second].second;
}

Value* Object::find(std::string_view key) noexcept {
  const auto it = index_.find(key);
  return it == index_.end() ? nullptr : &entries_[it->second].second;
}

bool operator==(const Object& a, const Object& b) {
  return a.entries_ == b.entries_;
}

// ---------------------------------------------------------------- Value

const Value& Value::operator[](std::string_view key) const noexcept {
  static const Value kNull;
  if (!is_object()) return kNull;
  const Value* v = object_.find(key);
  return v != nullptr ? *v : kNull;
}

const Value& Value::at(std::size_t i) const noexcept {
  static const Value kNull;
  if (!is_array() || i >= array_.size()) return kNull;
  return array_[i];
}

bool operator==(const Value& a, const Value& b) {
  if (a.type_ != b.type_) {
    // Allow 1 == 1.0 comparisons across int/double.
    if (a.is_number() && b.is_number()) {
      return a.as_double() == b.as_double();
    }
    return false;
  }
  switch (a.type_) {
    case Type::kNull:
      return true;
    case Type::kBool:
      return a.bool_ == b.bool_;
    case Type::kInt:
      return a.int_ == b.int_;
    case Type::kDouble:
      return a.double_ == b.double_;
    case Type::kString:
      return a.string_ == b.string_;
    case Type::kArray:
      return a.array_ == b.array_;
    case Type::kObject:
      return a.object_ == b.object_;
  }
  return false;
}

// ---------------------------------------------------------------- Parser

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  util::Expected<Value> run() {
    skip_ws();
    auto v = parse_value();
    if (!v) return v;
    skip_ws();
    if (pos_ != text_.size()) {
      return fail("trailing characters after JSON document");
    }
    return v;
  }

 private:
  util::Unexpected<util::Error> error(std::string message) const {
    return util::unexpected(util::Error{std::move(message), pos_});
  }
  util::Expected<Value> fail(std::string message) const {
    return error(std::move(message));
  }

  bool eof() const noexcept { return pos_ >= text_.size(); }
  char peek() const noexcept { return text_[pos_]; }
  char take() noexcept { return text_[pos_++]; }

  void skip_ws() noexcept {
    while (!eof()) {
      const char c = peek();
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        ++pos_;
      } else {
        break;
      }
    }
  }

  bool consume(std::string_view word) noexcept {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  util::Expected<Value> parse_value() {
    if (++depth_ > kMaxDepth) return fail("nesting too deep");
    auto result = parse_value_inner();
    --depth_;
    return result;
  }

  util::Expected<Value> parse_value_inner() {
    if (eof()) return fail("unexpected end of input");
    switch (peek()) {
      case 'n':
        if (consume("null")) return Value{nullptr};
        return fail("invalid literal");
      case 't':
        if (consume("true")) return Value{true};
        return fail("invalid literal");
      case 'f':
        if (consume("false")) return Value{false};
        return fail("invalid literal");
      case '"':
        return parse_string_value();
      case '[':
        return parse_array();
      case '{':
        return parse_object();
      default:
        return parse_number();
    }
  }

  util::Expected<Value> parse_string_value() {
    auto s = parse_string();
    if (!s) return util::unexpected(s.error());
    return Value{std::move(s.value())};
  }

  util::Expected<std::string> parse_string() {
    assert(peek() == '"');
    ++pos_;
    std::string out;
    while (true) {
      if (eof()) return util::unexpected(util::Error{"unterminated string", pos_});
      char c = take();
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) {
        return util::unexpected(
            util::Error{"unescaped control character in string", pos_ - 1});
      }
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (eof()) return util::unexpected(util::Error{"bad escape", pos_});
      c = take();
      switch (c) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          unsigned code = 0;
          if (!parse_hex4(code)) {
            return util::unexpected(util::Error{"bad \\u escape", pos_});
          }
          if (code >= 0xD800 && code <= 0xDBFF) {
            // Expect a low surrogate.
            if (!consume("\\u")) {
              return util::unexpected(
                  util::Error{"lone high surrogate", pos_});
            }
            unsigned low = 0;
            if (!parse_hex4(low) || low < 0xDC00 || low > 0xDFFF) {
              return util::unexpected(
                  util::Error{"invalid low surrogate", pos_});
            }
            const unsigned cp =
                0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
            append_utf8(out, cp);
          } else if (code >= 0xDC00 && code <= 0xDFFF) {
            return util::unexpected(util::Error{"lone low surrogate", pos_});
          } else {
            append_utf8(out, code);
          }
          break;
        }
        default:
          return util::unexpected(util::Error{"unknown escape", pos_ - 1});
      }
    }
  }

  bool parse_hex4(unsigned& out) noexcept {
    if (pos_ + 4 > text_.size()) return false;
    unsigned value = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = take();
      value <<= 4;
      if (c >= '0' && c <= '9') {
        value |= static_cast<unsigned>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        value |= static_cast<unsigned>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        value |= static_cast<unsigned>(c - 'A' + 10);
      } else {
        return false;
      }
    }
    out = value;
    return true;
  }

  static void append_utf8(std::string& out, unsigned cp) {
    if (cp < 0x80) {
      out.push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
      out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out.push_back(static_cast<char>(0xF0 | (cp >> 18)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  util::Expected<Value> parse_number() {
    const std::size_t start = pos_;
    bool is_double = false;
    if (!eof() && peek() == '-') ++pos_;
    if (eof() || peek() < '0' || peek() > '9') return fail("invalid number");
    if (peek() == '0') {
      ++pos_;
    } else {
      while (!eof() && peek() >= '0' && peek() <= '9') ++pos_;
    }
    if (!eof() && peek() == '.') {
      is_double = true;
      ++pos_;
      if (eof() || peek() < '0' || peek() > '9') {
        return fail("digits required after decimal point");
      }
      while (!eof() && peek() >= '0' && peek() <= '9') ++pos_;
    }
    if (!eof() && (peek() == 'e' || peek() == 'E')) {
      is_double = true;
      ++pos_;
      if (!eof() && (peek() == '+' || peek() == '-')) ++pos_;
      if (eof() || peek() < '0' || peek() > '9') {
        return fail("digits required in exponent");
      }
      while (!eof() && peek() >= '0' && peek() <= '9') ++pos_;
    }
    const std::string token(text_.substr(start, pos_ - start));
    if (!is_double) {
      errno = 0;
      char* end = nullptr;
      const long long v = std::strtoll(token.c_str(), &end, 10);
      if (errno == 0 && end == token.c_str() + token.size()) {
        return Value{static_cast<std::int64_t>(v)};
      }
      // Integer overflow: fall back to double.
    }
    const double d = std::strtod(token.c_str(), nullptr);
    return Value{d};
  }

  util::Expected<Value> parse_array() {
    assert(peek() == '[');
    ++pos_;
    Array arr;
    skip_ws();
    if (!eof() && peek() == ']') {
      ++pos_;
      return Value{std::move(arr)};
    }
    while (true) {
      skip_ws();
      auto v = parse_value();
      if (!v) return v;
      arr.push_back(std::move(v.value()));
      skip_ws();
      if (eof()) return fail("unterminated array");
      const char c = take();
      if (c == ']') return Value{std::move(arr)};
      if (c != ',') return fail("expected ',' or ']' in array");
    }
  }

  util::Expected<Value> parse_object() {
    assert(peek() == '{');
    ++pos_;
    Object obj;
    skip_ws();
    if (!eof() && peek() == '}') {
      ++pos_;
      return Value{std::move(obj)};
    }
    while (true) {
      skip_ws();
      if (eof() || peek() != '"') return fail("expected object key");
      auto key = parse_string();
      if (!key) return util::unexpected(key.error());
      skip_ws();
      if (eof() || take() != ':') return fail("expected ':' after key");
      skip_ws();
      auto v = parse_value();
      if (!v) return v;
      obj.set(std::move(key.value()), std::move(v.value()));
      skip_ws();
      if (eof()) return fail("unterminated object");
      const char c = take();
      if (c == '}') return Value{std::move(obj)};
      if (c != ',') return fail("expected ',' or '}' in object");
    }
  }

  static constexpr int kMaxDepth = 256;

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

util::Expected<Value> parse(std::string_view text) {
  return Parser{text}.run();
}

// ---------------------------------------------------------------- Writer

namespace {

void write_escaped(std::string& out, std::string_view s) {
  out.push_back('"');
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out.push_back(c);  // UTF-8 passes through.
        }
    }
  }
  out.push_back('"');
}

void write_double(std::string& out, double d) {
  if (std::isnan(d) || std::isinf(d)) {
    out += "null";  // JSON has no NaN/Inf; emit null like common writers.
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", d);
  out += buf;
}

class Writer {
 public:
  explicit Writer(const WriteOptions& opts) : opts_(opts) {}

  std::string result(const Value& v) {
    write_value(v, 0);
    return std::move(out_);
  }

 private:
  void newline(int depth) {
    if (!opts_.pretty) return;
    out_.push_back('\n');
    out_.append(static_cast<std::size_t>(depth) *
                    static_cast<std::size_t>(opts_.indent),
                ' ');
  }

  void write_value(const Value& v, int depth) {
    switch (v.type()) {
      case Type::kNull:
        out_ += "null";
        break;
      case Type::kBool:
        out_ += v.as_bool() ? "true" : "false";
        break;
      case Type::kInt:
        out_ += std::to_string(v.as_int());
        break;
      case Type::kDouble:
        write_double(out_, v.as_double());
        break;
      case Type::kString:
        write_escaped(out_, v.as_string());
        break;
      case Type::kArray: {
        const Array& arr = v.as_array();
        if (arr.empty()) {
          out_ += "[]";
          break;
        }
        out_.push_back('[');
        bool first = true;
        for (const Value& item : arr) {
          if (!first) out_.push_back(',');
          first = false;
          newline(depth + 1);
          write_value(item, depth + 1);
        }
        newline(depth);
        out_.push_back(']');
        break;
      }
      case Type::kObject: {
        const Object& obj = v.as_object();
        if (obj.empty()) {
          out_ += "{}";
          break;
        }
        out_.push_back('{');
        bool first = true;
        for (const auto& [key, val] : obj) {
          if (!first) out_.push_back(',');
          first = false;
          newline(depth + 1);
          write_escaped(out_, key);
          out_.push_back(':');
          if (opts_.pretty) out_.push_back(' ');
          write_value(val, depth + 1);
        }
        newline(depth);
        out_.push_back('}');
        break;
      }
    }
  }

  WriteOptions opts_;
  std::string out_;
};

}  // namespace

std::string write(const Value& value, const WriteOptions& opts) {
  return Writer{opts}.result(value);
}

util::Expected<bool> write_file(const std::string& path, const Value& value,
                                bool pretty) {
  std::ofstream out(path);
  if (out) {
    WriteOptions opts;
    opts.pretty = pretty;
    out << write(value, opts) << '\n';
    out.close();
  }
  if (!out) return util::unexpected(util::Error{"cannot write " + path});
  return true;
}

}  // namespace h2r::json

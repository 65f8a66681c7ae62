// Minimal JSON reader for validating the tracer's own output, and the one
// string escaper the obs writers share.
//
// The obs tests round-trip trace.json and metrics JSONL through a real
// parser instead of grepping for substrings — a trace Chrome cannot load is
// a bug even if the substrings are present. This is a strict little
// recursive-descent parser (objects, arrays, strings with the escapes the
// writer emits, numbers, true/false/null); it throws std::runtime_error
// with an offset on malformed input. It is deliberately not a general JSON
// library: no unicode \uXXXX decoding beyond pass-through, no streaming.
#pragma once

#include <cctype>
#include <cstddef>
#include <cstdio>
#include <map>
#include <memory>
#include <ostream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace minsgd::obs::json {

class Value;
using Object = std::map<std::string, Value>;
using Array = std::vector<Value>;

class Value {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Value() = default;
  explicit Value(bool b) : type_(Type::kBool), bool_(b) {}
  explicit Value(double d) : type_(Type::kNumber), num_(d) {}
  explicit Value(std::string s) : type_(Type::kString), str_(std::move(s)) {}
  explicit Value(Array a)
      : type_(Type::kArray), arr_(std::make_shared<Array>(std::move(a))) {}
  explicit Value(Object o)
      : type_(Type::kObject), obj_(std::make_shared<Object>(std::move(o))) {}

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }

  bool as_bool() const { return checked(Type::kBool), bool_; }
  double as_number() const { return checked(Type::kNumber), num_; }
  const std::string& as_string() const {
    return checked(Type::kString), str_;
  }
  const Array& as_array() const { return checked(Type::kArray), *arr_; }
  const Object& as_object() const { return checked(Type::kObject), *obj_; }

  /// Object member access; throws if absent or not an object.
  const Value& at(const std::string& key) const {
    const auto& o = as_object();
    const auto it = o.find(key);
    if (it == o.end()) throw std::runtime_error("json: missing key " + key);
    return it->second;
  }
  bool contains(const std::string& key) const {
    return type_ == Type::kObject && obj_->count(key) > 0;
  }

 private:
  void checked(Type want) const {
    if (type_ != want) throw std::runtime_error("json: wrong type access");
  }

  Type type_ = Type::kNull;
  bool bool_ = false;
  double num_ = 0.0;
  std::string str_;
  std::shared_ptr<Array> arr_;
  std::shared_ptr<Object> obj_;
};

namespace detail {

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Value parse() {
    Value v = value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing garbage");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& why) const {
    throw std::runtime_error("json parse error at offset " +
                             std::to_string(pos_) + ": " + why);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(const char* lit) {
    const std::size_t n = std::char_traits<char>::length(lit);
    if (text_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }

  Value value() {
    skip_ws();
    switch (peek()) {
      case '{': return object();
      case '[': return array();
      case '"': return Value(string());
      case 't':
        if (!consume_literal("true")) fail("bad literal");
        return Value(true);
      case 'f':
        if (!consume_literal("false")) fail("bad literal");
        return Value(false);
      case 'n':
        if (!consume_literal("null")) fail("bad literal");
        return Value();
      default: return number();
    }
  }

  Value object() {
    expect('{');
    Object o;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return Value(std::move(o));
    }
    while (true) {
      skip_ws();
      std::string key = string();
      skip_ws();
      expect(':');
      o.emplace(std::move(key), value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return Value(std::move(o));
    }
  }

  Value array() {
    expect('[');
    Array a;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return Value(std::move(a));
    }
    while (true) {
      a.push_back(value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return Value(std::move(a));
    }
  }

  std::string string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c == '\\') {
        if (pos_ >= text_.size()) fail("bad escape");
        const char e = text_[pos_++];
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'u':
            if (pos_ + 4 > text_.size()) fail("bad \\u escape");
            out += text_.substr(pos_ - 2, 6);  // pass through undecoded
            pos_ += 4;
            break;
          default: fail("unknown escape");
        }
      } else {
        out += c;
      }
    }
  }

  Value number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) fail("expected value");
    try {
      return Value(std::stod(text_.substr(start, pos_ - start)));
    } catch (const std::exception&) {
      fail("bad number");
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

}  // namespace detail

/// Writes `s` as the body of a JSON string: quotes, backslash and control
/// characters escaped, everything else passed through. The trace and
/// postmortem writers both use it, and parse() reads it back.
inline void write_escaped(std::ostream& out, std::string_view s) {
  for (const char c : s) {
    switch (c) {
      case '"': out << "\\\""; break;
      case '\\': out << "\\\\"; break;
      case '\n': out << "\\n"; break;
      case '\r': out << "\\r"; break;
      case '\t': out << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out << buf;
        } else {
          out << c;
        }
    }
  }
}

/// Parses a complete JSON document; throws std::runtime_error on error.
inline Value parse(const std::string& text) {
  return detail::Parser(text).parse();
}

}  // namespace minsgd::obs::json

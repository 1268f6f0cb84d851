#include "api/json.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <iterator>

#include "obs/metrics.h"
#include "util/error.h"

namespace fsr::api::json {
namespace {

const char* type_name(Value::Type type) noexcept {
  switch (type) {
    case Value::Type::null:
      return "null";
    case Value::Type::boolean:
      return "boolean";
    case Value::Type::number:
      return "number";
    case Value::Type::string:
      return "string";
    case Value::Type::array:
      return "array";
    case Value::Type::object:
      return "object";
  }
  return "value";
}

[[noreturn]] void type_error(const std::string& where, const char* wanted,
                             Value::Type got) {
  throw InvalidArgument("json: " + where + " must be a " + wanted +
                        ", not a " + type_name(got));
}

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Value run() {
    Value value = parse_value();
    skip_whitespace();
    if (at_ != text_.size()) fail("trailing characters after the value");
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& message) const {
    throw InvalidArgument("json: " + message + " at byte " +
                          std::to_string(at_));
  }

  void skip_whitespace() {
    while (at_ < text_.size() &&
           (text_[at_] == ' ' || text_[at_] == '\t' || text_[at_] == '\n' ||
            text_[at_] == '\r')) {
      ++at_;
    }
  }

  char peek() {
    if (at_ >= text_.size()) fail("unexpected end of input");
    return text_[at_];
  }

  void expect(char c) {
    if (peek() != c) {
      fail(std::string("expected '") + c + "', found '" + text_[at_] + "'");
    }
    ++at_;
  }

  bool consume_literal(const char* literal) {
    std::size_t length = 0;
    while (literal[length] != '\0') ++length;
    if (text_.compare(at_, length, literal) != 0) return false;
    at_ += length;
    return true;
  }

  Value parse_value() {
    skip_whitespace();
    const char c = peek();
    if (c == '{' || c == '[') {
      if (depth_ == k_max_depth) {
        fail("nesting deeper than " + std::to_string(k_max_depth) +
             " levels");
      }
      ++depth_;
      Value value = c == '{' ? parse_object() : parse_array();
      --depth_;
      return value;
    }
    if (c == '"') return Value::make_string(parse_string());
    if (c == 't') {
      if (!consume_literal("true")) fail("bad literal");
      return Value::make_bool(true);
    }
    if (c == 'f') {
      if (!consume_literal("false")) fail("bad literal");
      return Value::make_bool(false);
    }
    if (c == 'n') {
      if (!consume_literal("null")) fail("bad literal");
      return Value::make_null();
    }
    if (c == '-' || (c >= '0' && c <= '9')) return parse_number();
    fail(std::string("unexpected character '") + c + "'");
  }

  Value parse_object() {
    expect('{');
    std::vector<std::pair<std::string, Value>> members;
    skip_whitespace();
    if (peek() == '}') {
      ++at_;
      return Value::make_object(std::move(members));
    }
    while (true) {
      skip_whitespace();
      std::string key = parse_string();
      skip_whitespace();
      expect(':');
      members.emplace_back(std::move(key), parse_value());
      skip_whitespace();
      const char c = peek();
      if (c == ',') {
        ++at_;
        continue;
      }
      if (c == '}') {
        ++at_;
        return Value::make_object(std::move(members));
      }
      fail("expected ',' or '}' in object");
    }
  }

  Value parse_array() {
    expect('[');
    skip_whitespace();
    if (peek() == ']') {
      ++at_;
      return Value::make_array({});
    }
    // Items collect on one stack shared by every nesting level, so each
    // array allocates once, at its final size.
    const std::size_t base = pending_.size();
    while (true) {
      pending_.push_back(parse_value());
      skip_whitespace();
      const char c = peek();
      if (c == ',') {
        ++at_;
        continue;
      }
      if (c == ']') {
        ++at_;
        const auto first = pending_.begin() + static_cast<std::ptrdiff_t>(base);
        std::vector<Value> items(std::make_move_iterator(first),
                                 std::make_move_iterator(pending_.end()));
        pending_.erase(first, pending_.end());
        return Value::make_array(std::move(items));
      }
      fail("expected ',' or ']' in array");
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      // Plain bytes up to the next quote, escape or control character go
      // over in one append.
      std::size_t run = at_;
      while (run < text_.size() && text_[run] != '"' && text_[run] != '\\' &&
             static_cast<unsigned char>(text_[run]) >= 0x20) {
        ++run;
      }
      out.append(text_, at_, run - at_);
      at_ = run;
      if (at_ >= text_.size()) fail("unterminated string");
      const char c = text_[at_++];
      if (c == '"') return out;
      if (c != '\\') fail("raw control character in string");
      if (at_ >= text_.size()) fail("unterminated escape");
      const char escape = text_[at_++];
      switch (escape) {
        case '"':
          out += '"';
          break;
        case '\\':
          out += '\\';
          break;
        case '/':
          out += '/';
          break;
        case 'b':
          out += '\b';
          break;
        case 'f':
          out += '\f';
          break;
        case 'n':
          out += '\n';
          break;
        case 'r':
          out += '\r';
          break;
        case 't':
          out += '\t';
          break;
        case 'u': {
          if (at_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[at_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code += static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code += static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code += static_cast<unsigned>(h - 'A' + 10);
            } else {
              fail("bad \\u escape digit");
            }
          }
          // UTF-8 encode the BMP code point (surrogate pairs are not worth
          // supporting for this wire format's node names).
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xc0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3f));
          } else {
            out += static_cast<char>(0xe0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
            out += static_cast<char>(0x80 | (code & 0x3f));
          }
          break;
        }
        default:
          fail("unknown escape");
      }
    }
  }

  Value parse_number() {
    const std::size_t start = at_;
    bool integral = true;
    if (peek() == '-') ++at_;
    while (at_ < text_.size() && text_[at_] >= '0' && text_[at_] <= '9') ++at_;
    if (at_ < text_.size() && text_[at_] == '.') {
      integral = false;
      ++at_;
      while (at_ < text_.size() && text_[at_] >= '0' && text_[at_] <= '9') {
        ++at_;
      }
    }
    if (at_ < text_.size() && (text_[at_] == 'e' || text_[at_] == 'E')) {
      integral = false;
      ++at_;
      if (at_ < text_.size() && (text_[at_] == '+' || text_[at_] == '-')) {
        ++at_;
      }
      while (at_ < text_.size() && text_[at_] >= '0' && text_[at_] <= '9') {
        ++at_;
      }
    }
    const std::string literal = text_.substr(start, at_ - start);
    if (literal.empty() || literal == "-") fail("bad number");
    const double value = std::strtod(literal.c_str(), nullptr);
    std::uint64_t integer = 0;
    if (integral) {
      // Negative integers and literals past 2^64 - 1 are not integral to
      // callers, which only take u64: as_u64 refuses them rather than
      // answering for a clamped value.
      const char* end = literal.data() + literal.size();
      const auto [ptr, ec] = std::from_chars(literal.data(), end, integer);
      integral = ec == std::errc() && ptr == end;
    }
    return Value::make_number(value, integral, integral ? integer : 0);
  }

  const std::string& text_;
  std::size_t depth_ = 0;  // open arrays/objects around the cursor
  std::size_t at_ = 0;
  std::vector<Value> pending_;  // items of the open arrays, innermost last
};

}  // namespace

bool Value::as_bool(const std::string& where) const {
  const bool* value = std::get_if<bool>(&data_);
  if (value == nullptr) type_error(where, "boolean", type());
  return *value;
}

double Value::as_number(const std::string& where) const {
  const Number* number = std::get_if<Number>(&data_);
  if (number == nullptr) type_error(where, "number", type());
  return number->value;
}

std::uint64_t Value::as_u64(const std::string& where) const {
  const Number* number = std::get_if<Number>(&data_);
  if (number == nullptr || !number->integral) {
    type_error(where, "non-negative integer", type());
  }
  return number->integer;
}

const std::string& Value::as_string(const std::string& where) const {
  const std::string* text = std::get_if<std::string>(&data_);
  if (text == nullptr) type_error(where, "string", type());
  return *text;
}

const std::vector<Value>& Value::as_array(const std::string& where) const {
  const auto* items = std::get_if<std::vector<Value>>(&data_);
  if (items == nullptr) type_error(where, "array", type());
  return *items;
}

const std::vector<std::pair<std::string, Value>>& Value::as_object(
    const std::string& where) const {
  const auto* members =
      std::get_if<std::vector<std::pair<std::string, Value>>>(&data_);
  if (members == nullptr) type_error(where, "object", type());
  return *members;
}

const Value* Value::find(const std::string& key) const noexcept {
  const auto* members =
      std::get_if<std::vector<std::pair<std::string, Value>>>(&data_);
  if (members == nullptr) return nullptr;
  for (const auto& [name, value] : *members) {
    if (name == key) return &value;
  }
  return nullptr;
}

Value Value::make_null() { return Value(); }

Value Value::make_bool(bool value) {
  Value out;
  out.data_ = value;
  return out;
}

Value Value::make_number(double value, bool integral, std::uint64_t integer) {
  Value out;
  out.data_ = Number{value, integer, integral};
  return out;
}

Value Value::make_string(std::string value) {
  Value out;
  out.data_ = std::move(value);
  return out;
}

Value Value::make_array(std::vector<Value> items) {
  Value out;
  out.data_ = std::move(items);
  return out;
}

Value Value::make_object(std::vector<std::pair<std::string, Value>> members) {
  Value out;
  out.data_ = std::move(members);
  return out;
}

Value parse(const std::string& text) {
  static obs::Counter& parses = obs::registry().counter("api.json.parses");
  parses.add(1);
  return Parser(text).run();
}

}  // namespace fsr::api::json

// Minimal JSON value model + recursive-descent parser for the fsr_serve
// wire protocol (one request object per input line) and the campaign
// cache's outcome records (campaign/cache.cpp).
//
// Scope: full JSON syntax (objects, arrays, strings with escapes, numbers,
// booleans, null) with object member ORDER PRESERVED; numbers are held as
// doubles plus the exact integer when the literal is a non-negative
// integer that fits in 64 bits, which is all the wire layer needs (ids,
// seeds, small budgets). A larger integer literal is not integral, so
// as_u64 refuses it instead of answering for a clamped value. This is not
// a streaming parser: inputs are single request lines or record files,
// and any syntax error throws fsr::InvalidArgument with a byte offset so
// the CLI can report the offending line precisely. Arrays and objects
// nest at most k_max_depth levels deep, so no input, however hostile, can
// exhaust the stack.
//
// Rendering stays out of scope on purpose: responses and reports are
// rendered by purpose-built writers (wire.cpp, campaign/report.cpp)
// because byte-stable output — field order, number formatting — is part
// of the service contract, and a generic value printer would make those
// choices implicit.
#ifndef FSR_API_JSON_H
#define FSR_API_JSON_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <variant>
#include <vector>

namespace fsr::api::json {

class Value {
 public:
  enum class Type { null, boolean, number, string, array, object };

  Type type() const noexcept { return static_cast<Type>(data_.index()); }
  bool is_null() const noexcept { return type() == Type::null; }

  /// Typed getters throw fsr::InvalidArgument on a type mismatch, naming
  /// `where` (usually the field being read) in the message.
  bool as_bool(const std::string& where) const;
  double as_number(const std::string& where) const;
  /// The number as a non-negative integer; throws when the literal was
  /// fractional, negative, above 2^64 - 1, or not a number.
  std::uint64_t as_u64(const std::string& where) const;
  const std::string& as_string(const std::string& where) const;
  const std::vector<Value>& as_array(const std::string& where) const;
  const std::vector<std::pair<std::string, Value>>& as_object(
      const std::string& where) const;

  /// Object member lookup (first match); nullptr when absent or not an
  /// object.
  const Value* find(const std::string& key) const noexcept;

  // Construction is the parser's business; tests may use these directly.
  static Value make_null();
  static Value make_bool(bool value);
  static Value make_number(double value, bool integral, std::uint64_t integer);
  static Value make_string(std::string value);
  static Value make_array(std::vector<Value> items);
  static Value make_object(std::vector<std::pair<std::string, Value>> members);

 private:
  struct Number {
    double value = 0.0;
    std::uint64_t integer = 0;
    bool integral = false;
  };
  // One alternative per Type, in Type's order: the active index IS the
  // type, so a node is one string-sized payload plus its tag, and holds
  // only the container it uses.
  std::variant<std::monostate, bool, Number, std::string, std::vector<Value>,
               std::vector<std::pair<std::string, Value>>>
      data_;
};

/// Deepest array/object nesting parse() accepts. Wire requests nest a few
/// levels; the bound only exists to keep the recursive descent off the
/// end of the stack.
inline constexpr std::size_t k_max_depth = 128;

/// Parses exactly one JSON value from `text` (surrounding whitespace
/// allowed, trailing garbage rejected). Throws fsr::InvalidArgument on any
/// syntax error and on nesting deeper than k_max_depth. Every call counts
/// into the "api.json.parses" registry counter.
Value parse(const std::string& text);

}  // namespace fsr::api::json

#endif  // FSR_API_JSON_H

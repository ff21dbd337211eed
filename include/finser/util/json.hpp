#pragma once
/// \file json.hpp
/// \brief Minimal JSON document model, writer, and parser.
///
/// Backs the finser::obs RunReport and Chrome-trace artifacts plus their
/// round-trip tests. Design constraints, in order:
///
///  1. **Deterministic output.** Objects preserve insertion order (stored as
///     a flat vector of key/value pairs, not a hash map) and numbers format
///     reproducibly: integers exactly, doubles as the round-tripping text
///     %.17g prints. Two documents built by the same code path therefore
///     serialize byte-identically — the property the observability layer's
///     "metrics are bit-stable at any thread count" contract is tested on.
///     The scalar writers below are the ones dump() uses, so text streamed
///     without a document (the serve loop's replies) matches it byte for
///     byte.
///  2. **No dependencies.** A few hundred lines beat vendoring a JSON
///     library the container does not have.
///  3. **Strict-enough parsing** for round-trip tests and report tooling:
///     RFC 8259 numbers, UTF-8 pass-through, \uXXXX escapes, nesting-depth
///     and trailing-junk checks. Not a validator of exotic documents.
///
/// Errors throw util::Error with a byte offset.

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace finser::util {

/// One JSON value (tagged union). Copyable; cheap to move.
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kInt, kUint, kDouble, kString, kArray, kObject };

  /// Defaults to null.
  JsonValue() = default;
  JsonValue(bool b) : kind_(Kind::kBool), bool_(b) {}                  // NOLINT
  JsonValue(int v) : kind_(Kind::kInt), int_(v) {}                     // NOLINT
  JsonValue(std::int64_t v) : kind_(Kind::kInt), int_(v) {}            // NOLINT
  JsonValue(std::uint64_t v) : kind_(Kind::kUint), uint_(v) {}         // NOLINT
  JsonValue(double v) : kind_(Kind::kDouble), double_(v) {}            // NOLINT
  JsonValue(const char* s) : kind_(Kind::kString), string_(s) {}       // NOLINT
  JsonValue(std::string s) : kind_(Kind::kString), string_(std::move(s)) {}  // NOLINT

  static JsonValue object() { return JsonValue(Kind::kObject); }
  static JsonValue array() { return JsonValue(Kind::kArray); }

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_object() const { return kind_ == Kind::kObject; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  /// Any of the three numeric kinds.
  bool is_number() const {
    return kind_ == Kind::kInt || kind_ == Kind::kUint || kind_ == Kind::kDouble;
  }

  /// Typed access (throws util::Error on a kind mismatch).
  bool as_bool() const;
  std::int64_t as_int() const;    ///< kInt, or kUint/kDouble that fit exactly.
  std::uint64_t as_uint() const;  ///< kUint, or non-negative kInt.
  double as_double() const;       ///< Any numeric kind.
  const std::string& as_string() const;

  // --- object interface ---------------------------------------------------

  /// Insert-or-assign preserving insertion order; turns a null into an
  /// object first (throws on other kinds).
  JsonValue& operator[](const std::string& key);

  /// Lookup (throws util::Error when absent or not an object).
  const JsonValue& at(const std::string& key) const;

  bool contains(const std::string& key) const;
  const std::vector<std::pair<std::string, JsonValue>>& items() const;

  // --- array interface ----------------------------------------------------

  /// Append; turns a null into an array first (throws on other kinds).
  void push_back(JsonValue v);

  /// Element access (throws when out of range or not an array).
  const JsonValue& at(std::size_t index) const;

  /// Array/object element count (throws on scalar kinds).
  std::size_t size() const;

  // --- serialization ------------------------------------------------------

  /// Serialize. \p indent 0 → compact single line; > 0 → pretty-printed with
  /// that many spaces per level. Deterministic: insertion order, exact
  /// integer formatting, %.17g doubles (NaN/Inf are not representable in
  /// JSON and throw).
  std::string dump(int indent = 0) const;

  /// Parse a complete document (throws util::Error with a byte offset on
  /// malformed input or trailing non-whitespace).
  static JsonValue parse(const std::string& text);

  /// Structural equality (numeric kinds compare by exact value; kInt 3,
  /// kUint 3 and kDouble 3.0 are all equal).
  friend bool operator==(const JsonValue& a, const JsonValue& b);
  friend bool operator!=(const JsonValue& a, const JsonValue& b) { return !(a == b); }

 private:
  explicit JsonValue(Kind kind) : kind_(kind) {}

  void write(std::string& out, int indent, int depth) const;

  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  std::int64_t int_ = 0;
  std::uint64_t uint_ = 0;
  double double_ = 0.0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::vector<std::pair<std::string, JsonValue>> object_;
};

// --- scalar writers and the number reader -----------------------------------

/// Append \p s as a JSON string: quoted, with `"`, `\` and control
/// characters escaped; other bytes (UTF-8 included) pass through.
void append_json_string(std::string& out, std::string_view s);

/// Append a finite double as the text `%.17g` prints (produced by
/// std::to_chars), plus ".0" when that text would read back as an integer.
/// Throws util::Error on NaN/Inf.
void append_json_double(std::string& out, double v);

void append_json_int(std::string& out, std::int64_t v);
void append_json_uint(std::string& out, std::uint64_t v);

/// A number as parse() reads it: an integer that fits is kUint, or kInt
/// when negative; anything else is kDouble.
struct JsonNumber {
  JsonValue::Kind kind = JsonValue::Kind::kUint;
  std::int64_t i = 0;   ///< The value when kind is kInt.
  std::uint64_t u = 0;  ///< The value when kind is kUint.
  double d = 0.0;       ///< The value as JsonValue::as_double() reads it.
};

/// Read the number that starts at \p p. The token must follow RFC 8259's
/// grammar and end where the characters that could continue a number end,
/// so `+1`, `.5`, `1.`, `01`, `-01` and `1.e5` are rejected, as is a value
/// that overflows a double. parse() reads every number with this function.
/// \returns the end of the token, or nullptr when there is no valid number.
const char* scan_json_number(const char* p, const char* end, JsonNumber& out);

}  // namespace finser::util

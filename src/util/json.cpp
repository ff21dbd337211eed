#include "finser/util/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <cstring>

#include "finser/util/error.hpp"

namespace finser::util {

namespace {

[[noreturn]] void fail(const std::string& what) { throw Error("json: " + what); }

/// Maximum nesting depth accepted by the parser (and writer, symmetric).
constexpr int kMaxDepth = 64;

}  // namespace

void append_json_string(std::string& out, std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  out += '"';
  std::size_t run = 0;  // start of the bytes not yet appended
  for (std::size_t i = 0; i < s.size(); ++i) {
    const auto c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out.append(s.data() + run, i - run);
    run = i + 1;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        out += "\\u00";
        out += kHex[c >> 4];
        out += kHex[c & 0xF];
    }
  }
  out.append(s.data() + run, s.size() - run);
  out += '"';
}

void append_json_double(std::string& out, double v) {
  if (!std::isfinite(v)) fail("NaN/Inf is not representable in JSON");
  // std::to_chars in general format with a precision prints what printf's
  // %.<precision>g prints, without printf's format parsing; 17 significant
  // digits round-trip every finite double.
  char buf[32];
  const char* const end =
      std::to_chars(buf, buf + sizeof buf, v, std::chars_format::general, 17)
          .ptr;
  const std::string_view text(buf, static_cast<std::size_t>(end - buf));
  out += text;
  // Keep the value recognizably floating-point so parse(dump(x)) preserves
  // the numeric kind of whole-valued doubles.
  if (text.find_first_of(".e") == std::string_view::npos) out += ".0";
}

void append_json_int(std::string& out, std::int64_t v) {
  char buf[24];
  out.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
}

void append_json_uint(std::string& out, std::uint64_t v) {
  char buf[24];
  out.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
}

const char* scan_json_number(const char* p, const char* end, JsonNumber& out) {
  const char* const start = p;
  const auto digit = [&p, end] { return p < end && *p >= '0' && *p <= '9'; };
  const bool negative = p < end && *p == '-';
  if (negative) ++p;
  if (!digit()) return nullptr;
  if (*p == '0') {
    ++p;  // a leading zero stands alone
  } else {
    while (digit()) ++p;
  }
  const char* const int_end = p;
  if (p < end && *p == '.') {
    ++p;
    if (!digit()) return nullptr;
    while (digit()) ++p;
  }
  if (p < end && (*p == 'e' || *p == 'E')) {
    ++p;
    if (p < end && (*p == '+' || *p == '-')) ++p;
    if (!digit()) return nullptr;
    while (digit()) ++p;
  }
  // A run of number characters is one token: `01`, `1.5.2` and `1e5e3` are
  // malformed numbers, not a number followed by junk.
  if (p < end && std::string_view("0123456789.eE+-").find(*p) !=
                     std::string_view::npos) {
    return nullptr;
  }

  if (p == int_end) {
    std::uint64_t mag = 0;
    bool fits = true;
    for (const char* q = negative ? start + 1 : start; q < p && fits; ++q) {
      const auto d = static_cast<std::uint64_t>(*q - '0');
      fits = mag <= (UINT64_MAX - d) / 10;
      mag = mag * 10 + d;
    }
    constexpr std::uint64_t kInt64MinMagnitude = std::uint64_t{1} << 63;
    if (fits && !negative) {
      out.kind = JsonValue::Kind::kUint;
      out.u = mag;
      out.d = static_cast<double>(mag);
      return p;
    }
    if (fits && mag <= kInt64MinMagnitude) {
      out.kind = JsonValue::Kind::kInt;
      out.i = mag == kInt64MinMagnitude ? INT64_MIN
                                        : -static_cast<std::int64_t>(mag);
      out.d = static_cast<double>(out.i);
      return p;
    }
    // Out-of-range integer: read it as a double.
  }
  double v = 0.0;
  const std::from_chars_result r = std::from_chars(start, p, v);
  if (r.ec == std::errc::result_out_of_range) {
    // from_chars leaves an out-of-range value unset; strtod's ±0 (underflow)
    // or ±inf (overflow, rejected below) is what the parser reads for it.
    v = std::strtod(std::string(start, p).c_str(), nullptr);
  } else if (r.ec != std::errc() || r.ptr != p) {
    return nullptr;
  }
  if (!std::isfinite(v)) return nullptr;
  out.kind = JsonValue::Kind::kDouble;
  out.d = v;
  return p;
}

bool JsonValue::as_bool() const {
  if (kind_ != Kind::kBool) fail("not a bool");
  return bool_;
}

std::int64_t JsonValue::as_int() const {
  switch (kind_) {
    case Kind::kInt: return int_;
    case Kind::kUint:
      if (uint_ > static_cast<std::uint64_t>(INT64_MAX)) fail("uint out of int64 range");
      return static_cast<std::int64_t>(uint_);
    case Kind::kDouble: {
      // Range first: casting a double outside int64 is undefined behaviour.
      if (!(double_ >= -0x1p63 && double_ < 0x1p63)) {
        fail("double out of int64 range");
      }
      const auto i = static_cast<std::int64_t>(double_);
      if (static_cast<double>(i) != double_) fail("double is not an exact integer");
      return i;
    }
    default: fail("not a number");
  }
}

std::uint64_t JsonValue::as_uint() const {
  switch (kind_) {
    case Kind::kUint: return uint_;
    case Kind::kInt:
      if (int_ < 0) fail("negative value is not a uint");
      return static_cast<std::uint64_t>(int_);
    case Kind::kDouble: {
      if (double_ < 0.0) fail("negative value is not a uint");
      if (!(double_ < 0x1p64)) fail("double out of uint64 range");
      const auto u = static_cast<std::uint64_t>(double_);
      if (static_cast<double>(u) != double_) fail("double is not an exact integer");
      return u;
    }
    default: fail("not a number");
  }
}

double JsonValue::as_double() const {
  switch (kind_) {
    case Kind::kInt: return static_cast<double>(int_);
    case Kind::kUint: return static_cast<double>(uint_);
    case Kind::kDouble: return double_;
    default: fail("not a number");
  }
}

const std::string& JsonValue::as_string() const {
  if (kind_ != Kind::kString) fail("not a string");
  return string_;
}

JsonValue& JsonValue::operator[](const std::string& key) {
  if (kind_ == Kind::kNull) kind_ = Kind::kObject;
  if (kind_ != Kind::kObject) fail("operator[]: not an object");
  for (auto& [k, v] : object_) {
    if (k == key) return v;
  }
  object_.emplace_back(key, JsonValue());
  return object_.back().second;
}

const JsonValue& JsonValue::at(const std::string& key) const {
  if (kind_ != Kind::kObject) fail("at(key): not an object");
  for (const auto& [k, v] : object_) {
    if (k == key) return v;
  }
  fail("missing key \"" + key + "\"");
}

bool JsonValue::contains(const std::string& key) const {
  if (kind_ != Kind::kObject) return false;
  for (const auto& [k, v] : object_) {
    (void)v;
    if (k == key) return true;
  }
  return false;
}

const std::vector<std::pair<std::string, JsonValue>>& JsonValue::items() const {
  if (kind_ != Kind::kObject) fail("items(): not an object");
  return object_;
}

void JsonValue::push_back(JsonValue v) {
  if (kind_ == Kind::kNull) kind_ = Kind::kArray;
  if (kind_ != Kind::kArray) fail("push_back: not an array");
  array_.push_back(std::move(v));
}

const JsonValue& JsonValue::at(std::size_t index) const {
  if (kind_ != Kind::kArray) fail("at(index): not an array");
  if (index >= array_.size()) fail("array index out of range");
  return array_[index];
}

std::size_t JsonValue::size() const {
  if (kind_ == Kind::kArray) return array_.size();
  if (kind_ == Kind::kObject) return object_.size();
  fail("size(): not a container");
}

void JsonValue::write(std::string& out, int indent, int depth) const {
  if (depth > kMaxDepth) fail("nesting too deep");
  const auto newline_pad = [&out, indent](int d) {
    if (indent > 0) {
      out += '\n';
      out.append(static_cast<std::size_t>(indent * d), ' ');
    }
  };
  switch (kind_) {
    case Kind::kNull: out += "null"; break;
    case Kind::kBool: out += bool_ ? "true" : "false"; break;
    case Kind::kInt: append_json_int(out, int_); break;
    case Kind::kUint: append_json_uint(out, uint_); break;
    case Kind::kDouble: append_json_double(out, double_); break;
    case Kind::kString: append_json_string(out, string_); break;
    case Kind::kArray: {
      out += '[';
      for (std::size_t i = 0; i < array_.size(); ++i) {
        if (i > 0) out += ',';
        newline_pad(depth + 1);
        array_[i].write(out, indent, depth + 1);
      }
      if (!array_.empty()) newline_pad(depth);
      out += ']';
      break;
    }
    case Kind::kObject: {
      out += '{';
      for (std::size_t i = 0; i < object_.size(); ++i) {
        if (i > 0) out += ',';
        newline_pad(depth + 1);
        append_json_string(out, object_[i].first);
        out += indent > 0 ? ": " : ":";
        object_[i].second.write(out, indent, depth + 1);
      }
      if (!object_.empty()) newline_pad(depth);
      out += '}';
      break;
    }
  }
}

std::string JsonValue::dump(int indent) const {
  std::string out;
  write(out, indent, 0);
  if (indent > 0) out += '\n';
  return out;
}

bool operator==(const JsonValue& a, const JsonValue& b) {
  using Kind = JsonValue::Kind;
  if (a.is_number() && b.is_number()) {
    // Compare exactly within the integer kinds, by value across kinds.
    if (a.kind_ != Kind::kDouble && b.kind_ != Kind::kDouble) {
      const bool a_neg = a.kind_ == Kind::kInt && a.int_ < 0;
      const bool b_neg = b.kind_ == Kind::kInt && b.int_ < 0;
      if (a_neg != b_neg) return false;
      if (a_neg) return a.int_ == b.int_;
      const std::uint64_t au =
          a.kind_ == Kind::kUint ? a.uint_ : static_cast<std::uint64_t>(a.int_);
      const std::uint64_t bu =
          b.kind_ == Kind::kUint ? b.uint_ : static_cast<std::uint64_t>(b.int_);
      return au == bu;
    }
    return a.as_double() == b.as_double();
  }
  if (a.kind_ != b.kind_) return false;
  switch (a.kind_) {
    case Kind::kNull: return true;
    case Kind::kBool: return a.bool_ == b.bool_;
    case Kind::kString: return a.string_ == b.string_;
    case Kind::kArray: return a.array_ == b.array_;
    case Kind::kObject: return a.object_ == b.object_;
    default: return false;  // Numeric kinds handled above.
  }
}

// ---------------------------------------------------------------------------
// Parser (recursive descent)
// ---------------------------------------------------------------------------

namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : s_(text) {}

  JsonValue run() {
    JsonValue v = parse_value(0);
    skip_ws();
    if (pos_ != s_.size()) err("trailing characters after document");
    return v;
  }

 private:
  [[noreturn]] void err(const std::string& what) const {
    fail(what + " at byte " + std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < s_.size()) {
      const char c = s_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= s_.size()) err("unexpected end of input");
    return s_[pos_];
  }

  void expect(char c) {
    if (peek() != c) err(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(const char* lit) {
    const std::size_t n = std::strlen(lit);
    if (s_.compare(pos_, n, lit) == 0) {
      pos_ += n;
      return true;
    }
    return false;
  }

  JsonValue parse_value(int depth) {
    if (depth > kMaxDepth) err("nesting too deep");
    skip_ws();
    const char c = peek();
    switch (c) {
      case '{': return parse_object(depth);
      case '[': return parse_array(depth);
      case '"': return JsonValue(parse_string());
      case 't':
        if (consume_literal("true")) return JsonValue(true);
        err("invalid literal");
      case 'f':
        if (consume_literal("false")) return JsonValue(false);
        err("invalid literal");
      case 'n':
        if (consume_literal("null")) return JsonValue();
        err("invalid literal");
      default: return parse_number();
    }
  }

  JsonValue parse_object(int depth) {
    expect('{');
    JsonValue v = JsonValue::object();
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    for (;;) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      if (v.contains(key)) err("duplicate key \"" + key + "\"");
      v[key] = parse_value(depth + 1);
      skip_ws();
      const char c = peek();
      ++pos_;
      if (c == '}') return v;
      if (c != ',') err("expected ',' or '}'");
    }
  }

  JsonValue parse_array(int depth) {
    expect('[');
    JsonValue v = JsonValue::array();
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    for (;;) {
      v.push_back(parse_value(depth + 1));
      skip_ws();
      const char c = peek();
      ++pos_;
      if (c == ']') return v;
      if (c != ',') err("expected ',' or ']'");
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= s_.size()) err("unterminated string");
      const char c = s_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        if (static_cast<unsigned char>(c) < 0x20) err("raw control character in string");
        out += c;
        continue;
      }
      if (pos_ >= s_.size()) err("unterminated escape");
      const char e = s_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            if (pos_ >= s_.size()) err("truncated \\u escape");
            const char h = s_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else err("invalid \\u escape");
          }
          // Encode the code point as UTF-8 (surrogate pairs are passed
          // through as two 3-byte sequences — fine for report tooling).
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default: err("invalid escape");
      }
    }
  }

  JsonValue parse_number() {
    JsonNumber n;
    const char* const begin = s_.data() + pos_;
    const char* const end = scan_json_number(begin, s_.data() + s_.size(), n);
    if (end == nullptr) err("invalid number");
    pos_ += static_cast<std::size_t>(end - begin);
    switch (n.kind) {
      case JsonValue::Kind::kInt: return JsonValue(n.i);
      case JsonValue::Kind::kUint: return JsonValue(n.u);
      default: return JsonValue(n.d);
    }
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

}  // namespace

JsonValue JsonValue::parse(const std::string& text) { return Parser(text).run(); }

}  // namespace finser::util

#include "support/json.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "support/check.hpp"
#include "support/str.hpp"

namespace hca {

std::string jsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
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
          out.push_back(c);
        }
    }
  }
  return out;
}

void JsonWriter::beforeValue() {
  if (pendingKey_) {
    pendingKey_ = false;
    return;
  }
  if (!counts_.empty() && counts_.back()++ > 0) os_ << ',';
}

JsonWriter& JsonWriter::beginObject() {
  beforeValue();
  counts_.push_back(0);
  os_ << '{';
  return *this;
}

JsonWriter& JsonWriter::endObject() {
  HCA_CHECK(!counts_.empty(), "JsonWriter::endObject without beginObject");
  counts_.pop_back();
  os_ << '}';
  return *this;
}

JsonWriter& JsonWriter::beginArray() {
  beforeValue();
  counts_.push_back(0);
  os_ << '[';
  return *this;
}

JsonWriter& JsonWriter::endArray() {
  HCA_CHECK(!counts_.empty(), "JsonWriter::endArray without beginArray");
  counts_.pop_back();
  os_ << ']';
  return *this;
}

JsonWriter& JsonWriter::key(const std::string& name) {
  HCA_CHECK(!pendingKey_, "JsonWriter::key while a key is already pending");
  if (!counts_.empty() && counts_.back()++ > 0) os_ << ',';
  os_ << '"' << jsonEscape(name) << "\":";
  pendingKey_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(const std::string& v) {
  beforeValue();
  os_ << '"' << jsonEscape(v) << '"';
  return *this;
}

JsonWriter& JsonWriter::value(const char* v) { return value(std::string(v)); }

JsonWriter& JsonWriter::value(bool v) {
  beforeValue();
  os_ << (v ? "true" : "false");
  return *this;
}

JsonWriter& JsonWriter::value(std::int64_t v) {
  beforeValue();
  os_ << v;
  return *this;
}

JsonWriter& JsonWriter::value(double v) {
  beforeValue();
  if (!std::isfinite(v)) {
    os_ << "null";
    return *this;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  os_ << buf;
  return *this;
}

JsonWriter& JsonWriter::null() {
  beforeValue();
  os_ << "null";
  return *this;
}

const JsonValue* JsonValue::find(const std::string& name) const {
  if (kind != Kind::kObject) return nullptr;
  // The parser rejects duplicate keys, so at most one member can match;
  // hand-built objects with duplicates resolve to the last occurrence.
  const JsonValue* found = nullptr;
  for (const auto& [key, value] : object) {
    if (key == name) found = &value;
  }
  return found;
}

namespace {

/// Recursive-descent parser over a bounded character range.
class Parser {
 public:
  Parser(const std::string& text, std::string* error)
      : text_(text), error_(error) {}

  bool parse(JsonValue* out) {
    skipWs();
    if (!parseValue(out, /*depth=*/0)) return false;
    skipWs();
    if (pos_ != text_.size()) return fail("trailing characters after document");
    return true;
  }

 private:
  static constexpr int kMaxDepth = 256;

  bool fail(const std::string& message) {
    if (error_ != nullptr) {
      *error_ = message + " at offset " + std::to_string(pos_);
    }
    return false;
  }

  void skipWs() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool literal(const char* word, std::size_t len) {
    if (text_.compare(pos_, len, word) != 0) return fail("invalid literal");
    pos_ += len;
    return true;
  }

  bool parseValue(JsonValue* out, int depth) {
    if (depth > kMaxDepth) return fail("nesting too deep");
    if (pos_ >= text_.size()) return fail("unexpected end of input");
    switch (text_[pos_]) {
      case '{': return parseObject(out, depth);
      case '[': return parseArray(out, depth);
      case '"':
        out->kind = JsonValue::Kind::kString;
        return parseString(&out->string);
      case 't':
        out->kind = JsonValue::Kind::kBool;
        out->boolean = true;
        return literal("true", 4);
      case 'f':
        out->kind = JsonValue::Kind::kBool;
        out->boolean = false;
        return literal("false", 5);
      case 'n':
        out->kind = JsonValue::Kind::kNull;
        return literal("null", 4);
      default: return parseNumber(out);
    }
  }

  bool parseObject(JsonValue* out, int depth) {
    out->kind = JsonValue::Kind::kObject;
    ++pos_;  // '{'
    skipWs();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return true;
    }
    for (;;) {
      skipWs();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return fail("expected object key");
      }
      std::string key;
      if (!parseString(&key)) return false;
      for (const auto& [existing, unused] : out->object) {
        if (existing == key) return fail("duplicate object key \"" + key + "\"");
      }
      skipWs();
      if (pos_ >= text_.size() || text_[pos_] != ':') return fail("expected ':'");
      ++pos_;
      skipWs();
      JsonValue value;
      if (!parseValue(&value, depth + 1)) return false;
      out->object.emplace_back(std::move(key), std::move(value));
      skipWs();
      if (pos_ >= text_.size()) return fail("unterminated object");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == '}') {
        ++pos_;
        return true;
      }
      return fail("expected ',' or '}'");
    }
  }

  bool parseArray(JsonValue* out, int depth) {
    out->kind = JsonValue::Kind::kArray;
    ++pos_;  // '['
    skipWs();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return true;
    }
    for (;;) {
      skipWs();
      JsonValue value;
      if (!parseValue(&value, depth + 1)) return false;
      out->array.push_back(std::move(value));
      skipWs();
      if (pos_ >= text_.size()) return fail("unterminated array");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == ']') {
        ++pos_;
        return true;
      }
      return fail("expected ',' or ']'");
    }
  }

  bool parseString(std::string* out) {
    ++pos_;  // '"'
    out->clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        return fail("raw control character in string");
      }
      if (c != '\\') {
        out->push_back(c);
        ++pos_;
        continue;
      }
      if (pos_ + 1 >= text_.size()) return fail("unterminated escape");
      const char esc = text_[pos_ + 1];
      pos_ += 2;
      switch (esc) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_ + static_cast<std::size_t>(i)];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else return fail("invalid \\u escape");
          }
          pos_ += 4;
          // UTF-8 encode (surrogate pairs are kept as two separate
          // 3-byte sequences; the writer never emits them).
          if (code < 0x80) {
            out->push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out->push_back(static_cast<char>(0xC0 | (code >> 6)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out->push_back(static_cast<char>(0xE0 | (code >> 12)));
            out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default: return fail("invalid escape character");
      }
    }
    return fail("unterminated string");
  }

  bool parseNumber(JsonValue* out) {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    if (pos_ >= text_.size() || std::isdigit(static_cast<unsigned char>(text_[pos_])) == 0) {
      return fail("invalid number");
    }
    while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0) ++pos_;
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      if (pos_ >= text_.size() || std::isdigit(static_cast<unsigned char>(text_[pos_])) == 0) {
        return fail("digit required after '.'");
      }
      while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0) ++pos_;
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) ++pos_;
      if (pos_ >= text_.size() || std::isdigit(static_cast<unsigned char>(text_[pos_])) == 0) {
        return fail("digit required in exponent");
      }
      while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0) ++pos_;
    }
    out->kind = JsonValue::Kind::kNumber;
    out->number = std::strtod(text_.c_str() + start, nullptr);
    return true;
  }

  const std::string& text_;
  std::string* error_;
  std::size_t pos_ = 0;
};

}  // namespace

bool parseJson(const std::string& text, JsonValue* out, std::string* error) {
  HCA_CHECK(out != nullptr, "parseJson needs an output value");
  Parser parser(text, error);
  return parser.parse(out);
}

// --- strict typed reads -----------------------------------------------------

JsonValue JsonReader::parse(const std::string& text) const {
  JsonValue value;
  std::string error;
  if (!parseJson(text, &value, &error)) fail(strCat("bad JSON: ", error));
  return value;
}

JsonField JsonReader::root(const JsonValue& value) const {
  return JsonField(*this, value, {});
}

JsonField JsonReader::field(const JsonValue& value,
                            std::string_view name) const {
  return JsonField(*this, value, name);
}

void JsonReader::fail(std::string_view message) const {
  throw InvalidArgumentError(strCat(where_, ": ", message));
}

void JsonField::mustBe(std::string_view what) const {
  if (name_.empty()) reader_.fail(strCat("must be ", what));
  if (index_ < 0) reader_.fail(strCat("'", name_, "' must be ", what));
  reader_.fail(strCat("'", name_, "[", index_, "]' must be ", what));
}

JsonField JsonField::member(std::string_view name) const {
  std::optional<JsonField> m = find(name);
  if (!m) reader_.fail(strCat("missing member '", name, "'"));
  return *m;
}

std::optional<JsonField> JsonField::find(std::string_view name) const {
  for (const auto& [key, value] : members()) {
    if (key == name) return JsonField(reader_, value, key);
  }
  return std::nullopt;
}

void JsonField::closed(std::initializer_list<std::string_view> names) const {
  for (const auto& [key, unused] : members()) {
    if (std::find(names.begin(), names.end(), key) == names.end()) {
      reader_.fail(strCat("unknown member '", key, "'"));
    }
  }
}

JsonField JsonField::at(std::size_t i) const {
  const std::vector<JsonValue>& elements = array();
  HCA_CHECK(i < elements.size(), "JsonField::at past the end of the array");
  JsonField element(reader_, elements[i], name_);
  element.index_ = static_cast<std::int64_t>(i);
  return element;
}

const std::string& JsonField::string() const {
  if (value_.kind != JsonValue::Kind::kString) mustBe("a string");
  return value_.string;
}

bool JsonField::boolean() const {
  if (value_.kind != JsonValue::Kind::kBool) mustBe("a bool");
  return value_.boolean;
}

double JsonField::number() const {
  if (value_.kind != JsonValue::Kind::kNumber ||
      !std::isfinite(value_.number)) {
    mustBe("a finite number");
  }
  return value_.number;
}

std::int64_t JsonField::exactInt() const {
  const double d = value_.number;
  if (value_.kind != JsonValue::Kind::kNumber || std::floor(d) != d ||
      std::abs(d) > 9007199254740992.0) {
    mustBe("an exact integer (within ±2^53)");
  }
  return static_cast<std::int64_t>(d);
}

std::int32_t JsonField::int32() const {
  const std::int64_t i = exactInt();
  if (i < INT32_MIN || i > INT32_MAX) mustBe("an integer in int32 range");
  return static_cast<std::int32_t>(i);
}

const std::vector<JsonValue>& JsonField::array() const {
  if (!value_.isArray()) mustBe("an array");
  return value_.array;
}

const std::vector<std::pair<std::string, JsonValue>>& JsonField::members()
    const {
  if (!value_.isObject()) mustBe("an object");
  return value_.object;
}

}  // namespace hca

#pragma once

#include <cstdint>
#include <initializer_list>
#include <map>
#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

/// Minimal JSON support for the observability layer: a streaming writer
/// (escaping-correct, no intermediate DOM) used by the trace / report /
/// bench exporters, a small strict parser used by tests and tooling to
/// round-trip what the writer produced, and the one typed accessor set
/// (JsonReader / JsonField) every reader of a parsed document goes
/// through. None aims to be a general JSON library; all cover exactly
/// RFC 8259 object/array/string/number/bool/null syntax.
namespace hca {

/// Escapes `s` for inclusion inside a JSON string literal (quotes not
/// included).
[[nodiscard]] std::string jsonEscape(const std::string& s);

/// Streaming JSON writer. Keys/values are emitted in call order; the
/// writer tracks nesting and inserts commas, so callers never hand-place
/// separators. Numbers are written via std::ostream (doubles get enough
/// digits to round-trip; NaN/inf — which JSON cannot represent — are
/// emitted as null).
class JsonWriter {
 public:
  explicit JsonWriter(std::ostream& os) : os_(os) {}

  JsonWriter& beginObject();
  JsonWriter& endObject();
  JsonWriter& beginArray();
  JsonWriter& endArray();

  /// Emits the key of the next object member.
  JsonWriter& key(const std::string& name);

  JsonWriter& value(const std::string& v);
  JsonWriter& value(const char* v);
  JsonWriter& value(bool v);
  JsonWriter& value(std::int64_t v);
  JsonWriter& value(int v) { return value(static_cast<std::int64_t>(v)); }
  JsonWriter& value(double v);
  JsonWriter& null();

 private:
  void beforeValue();

  std::ostream& os_;
  /// One entry per open container: the number of elements emitted so far.
  std::vector<int> counts_;
  bool pendingKey_ = false;
};

/// Parsed JSON value (strict parser output).
struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  /// Insertion-ordered members (the parser rejects duplicate keys).
  std::vector<std::pair<std::string, JsonValue>> object;

  [[nodiscard]] bool isObject() const { return kind == Kind::kObject; }
  [[nodiscard]] bool isArray() const { return kind == Kind::kArray; }
  [[nodiscard]] bool isNull() const { return kind == Kind::kNull; }
  /// Member lookup; nullptr when absent or not an object.
  [[nodiscard]] const JsonValue* find(const std::string& name) const;
};

/// Parses `text` as one JSON document. Returns false (and sets `*error`
/// when non-null) on any syntax violation, including trailing garbage and
/// objects with duplicate keys.
bool parseJson(const std::string& text, JsonValue* out,
               std::string* error = nullptr);

class JsonField;

/// The strict reading contract: what a read of a parsed document accepts.
/// A reader carries the error prefix (`where`: "batch manifest", "history
/// line 3", "checkpoint", ...); every accessor of the JsonFields it hands
/// out throws InvalidArgumentError as "<where>: '<name>' must be …",
/// "<where>: missing member '<name>'" or "<where>: unknown member
/// '<name>'". Nothing is coerced: an ill-typed, non-integral or
/// out-of-range value throws instead of reading as 0, "" or a truncated
/// cast. Integers are exact — integral doubles within ±2^53, the range a
/// double holds without rounding.
class JsonReader {
 public:
  explicit JsonReader(std::string where) : where_(std::move(where)) {}

  /// Parses `text`; a syntax error throws "<where>: bad JSON: …".
  [[nodiscard]] JsonValue parse(const std::string& text) const;

  /// `value` as a document root (unnamed in errors).
  [[nodiscard]] JsonField root(const JsonValue& value) const;
  /// `value` as a value in hand — an array element or an iterated member —
  /// named `name` in errors.
  [[nodiscard]] JsonField field(const JsonValue& value,
                                std::string_view name) const;

  /// Throws InvalidArgumentError "<where>: <message>".
  [[noreturn]] void fail(std::string_view message) const;

 private:
  std::string where_;
};

/// One value under a JsonReader. Holds references to the reader, the value
/// and its name, so it lives no longer than any of them.
class JsonField {
 public:
  JsonField(const JsonReader& reader, const JsonValue& value,
            std::string_view name)
      : reader_(reader), value_(value), name_(name) {}

  /// A required member of this object.
  [[nodiscard]] JsonField member(std::string_view name) const;
  /// An optional member of this object; nullopt when absent.
  [[nodiscard]] std::optional<JsonField> find(std::string_view name) const;
  /// Requires this object to have no member outside `names`.
  void closed(std::initializer_list<std::string_view> names) const;
  /// Element `i` of this array (named "<name>[i]" in errors).
  [[nodiscard]] JsonField at(std::size_t i) const;
  /// `read(at(i))` for every element of this array, in order.
  template <class Read>
  [[nodiscard]] auto elements(Read read) const {
    std::vector<std::remove_cvref_t<std::invoke_result_t<Read, JsonField>>>
        out;
    const std::size_t n = array().size();
    out.reserve(n);
    for (std::size_t i = 0; i < n; ++i) out.push_back(read(at(i)));
    return out;
  }

  [[nodiscard]] const JsonValue& value() const { return value_; }
  [[nodiscard]] bool isNull() const { return value_.isNull(); }
  [[nodiscard]] const std::string& string() const;
  [[nodiscard]] bool boolean() const;
  /// A finite number.
  [[nodiscard]] double number() const;
  /// An integral number within ±2^53.
  [[nodiscard]] std::int64_t exactInt() const;
  /// An integral number within the int32 range.
  [[nodiscard]] std::int32_t int32() const;
  [[nodiscard]] const std::vector<JsonValue>& array() const;
  /// This object's members, in document order.
  [[nodiscard]] const std::vector<std::pair<std::string, JsonValue>>& members()
      const;

 private:
  [[noreturn]] void mustBe(std::string_view what) const;

  const JsonReader& reader_;
  const JsonValue& value_;
  std::string_view name_;
  /// The element index when this is an array element, else -1.
  std::int64_t index_ = -1;
};

}  // namespace hca

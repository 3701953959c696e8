// Minimal JSON value, parser and writer: enough for the result files this
// benchmark writes, BENCHMARK.json, and --compare reading both back.
// Objects keep insertion order so written files read in a stable order.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

namespace parcel::perf::json {

class Value {
 public:
  using Array = std::vector<Value>;
  using Object = std::vector<std::pair<std::string, Value>>;

  // Implicit on purpose: {"key", 1.5} and {"key", "text"} read as JSON.
  Value() = default;
  Value(bool b) : v_(b) {}
  Value(double d) : v_(d) {}
  Value(int i) : v_(static_cast<double>(i)) {}
  Value(std::uint64_t u) : v_(static_cast<double>(u)) {}
  Value(const char* s) : v_(std::string(s)) {}
  Value(std::string s) : v_(std::move(s)) {}
  Value(Array a) : v_(std::move(a)) {}
  Value(Object o) : v_(std::move(o)) {}

  [[nodiscard]] bool is_null() const { return v_.index() == 0; }
  [[nodiscard]] bool is_bool() const { return v_.index() == 1; }
  [[nodiscard]] bool is_number() const { return v_.index() == 2; }
  [[nodiscard]] bool is_string() const { return v_.index() == 3; }
  [[nodiscard]] bool is_array() const { return v_.index() == 4; }
  [[nodiscard]] bool is_object() const { return v_.index() == 5; }

  // Typed accessors; each throws std::invalid_argument on a type mismatch.
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_number() const;
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const Array& as_array() const;
  [[nodiscard]] const Object& as_object() const;

  /// Member lookup on an object; null when absent or not an object.
  [[nodiscard]] const Value* find(std::string_view key) const;
  /// Like find, but throws std::invalid_argument naming the missing key.
  [[nodiscard]] const Value& at(std::string_view key) const;

  /// Appends a member (objects only; converts null into an empty object).
  void set(std::string key, Value value);

  /// Compact single-line text. Numbers are written in the shortest form
  /// that reads back to the same double, integers without a fraction.
  [[nodiscard]] std::string dump() const;

 private:
  void dump_to(std::string& out) const;
  std::variant<std::nullptr_t, bool, double, std::string, Array, Object> v_;
};

/// Parses one JSON document; throws std::invalid_argument on malformed
/// text or trailing content.
[[nodiscard]] Value parse(std::string_view text);

/// Appends `s` as a quoted JSON string.
void quote_to(std::string& out, std::string_view s);
/// Appends `v` in the shortest round-trip form.
void number_to(std::string& out, double v);

}  // namespace parcel::perf::json

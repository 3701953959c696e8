#include "json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace parcel::perf::json {

namespace {

[[noreturn]] void fail(const std::string& what) {
  throw std::invalid_argument("json: " + what);
}

class Parser {
 public:
  explicit Parser(std::string_view text) : s_(text) {}

  Value document() {
    Value v = value(0);
    skip_ws();
    if (pos_ != s_.size()) fail("trailing content at offset " + std::to_string(pos_));
    return v;
  }

 private:
  static constexpr int kMaxDepth = 64;

  void skip_ws() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\n' ||
                                s_[pos_] == '\r' || s_[pos_] == '\t')) {
      ++pos_;
    }
  }

  bool eat(char c) {
    skip_ws();
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  void expect(char c) {
    if (!eat(c)) fail(std::string("expected '") + c + "' at offset " + std::to_string(pos_));
  }

  bool literal(std::string_view word) {
    if (s_.substr(pos_, word.size()) == word) {
      pos_ += word.size();
      return true;
    }
    return false;
  }

  Value value(int depth) {
    if (depth > kMaxDepth) fail("nesting too deep");
    skip_ws();
    if (pos_ >= s_.size()) fail("unexpected end of input");
    const char c = s_[pos_];
    if (c == '{') return object(depth);
    if (c == '[') return array(depth);
    if (c == '"') return Value(string());
    if (literal("true")) return Value(true);
    if (literal("false")) return Value(false);
    if (literal("null")) return Value();
    return Value(number());
  }

  Value object(int depth) {
    expect('{');
    Value::Object members;
    if (eat('}')) return Value(std::move(members));
    do {
      skip_ws();
      std::string key = string();
      expect(':');
      members.emplace_back(std::move(key), value(depth + 1));
    } while (eat(','));
    expect('}');
    return Value(std::move(members));
  }

  Value array(int depth) {
    expect('[');
    Value::Array items;
    if (eat(']')) return Value(std::move(items));
    do {
      items.push_back(value(depth + 1));
    } while (eat(','));
    expect(']');
    return Value(std::move(items));
  }

  std::string string() {
    if (pos_ >= s_.size() || s_[pos_] != '"') fail("expected string at offset " + std::to_string(pos_));
    ++pos_;
    std::string out;
    while (true) {
      if (pos_ >= s_.size()) fail("unterminated string");
      const char c = s_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) fail("control character in string");
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= s_.size()) fail("unterminated escape");
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
          if (pos_ + 4 > s_.size()) fail("short \\u escape");
          unsigned code = 0;
          const auto* first = s_.data() + pos_;
          auto [end, ec] = std::from_chars(first, first + 4, code, 16);
          if (ec != std::errc() || end != first + 4) fail("bad \\u escape");
          pos_ += 4;
          // The files this tool reads are ASCII; anything wider is kept
          // as UTF-8 without surrogate-pair joining.
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
        default:
          fail(std::string("bad escape \\") + e);
      }
    }
  }

  double number() {
    const std::size_t start = pos_;
    if (pos_ < s_.size() && s_[pos_] == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0 ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    double v = 0.0;
    const char* first = s_.data() + start;
    const char* last = s_.data() + pos_;
    auto [end, ec] = std::from_chars(first, last, v);
    if (start == pos_ || ec != std::errc() || end != last || !std::isfinite(v)) {
      fail("bad number at offset " + std::to_string(start));
    }
    return v;
  }

  std::string_view s_;
  std::size_t pos_ = 0;
};

}  // namespace

bool Value::as_bool() const {
  if (!is_bool()) fail("expected a boolean");
  return std::get<bool>(v_);
}

double Value::as_number() const {
  if (!is_number()) fail("expected a number");
  return std::get<double>(v_);
}

const std::string& Value::as_string() const {
  if (!is_string()) fail("expected a string");
  return std::get<std::string>(v_);
}

const Value::Array& Value::as_array() const {
  if (!is_array()) fail("expected an array");
  return std::get<Array>(v_);
}

const Value::Object& Value::as_object() const {
  if (!is_object()) fail("expected an object");
  return std::get<Object>(v_);
}

const Value* Value::find(std::string_view key) const {
  if (!is_object()) return nullptr;
  for (const auto& [k, v] : std::get<Object>(v_)) {
    if (k == key) return &v;
  }
  return nullptr;
}

const Value& Value::at(std::string_view key) const {
  const Value* v = find(key);
  if (v == nullptr) fail("missing key \"" + std::string(key) + "\"");
  return *v;
}

void Value::set(std::string key, Value value) {
  if (is_null()) v_ = Object{};
  if (!is_object()) fail("set on a non-object");
  std::get<Object>(v_).emplace_back(std::move(key), std::move(value));
}

std::string Value::dump() const {
  std::string out;
  dump_to(out);
  return out;
}

void quote_to(std::string& out, std::string_view s) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void number_to(std::string& out, double v) {
  if (!std::isfinite(v)) {
    // JSON has no spelling for these; null keeps the document valid and
    // makes the reader's type check fail loudly.
    out += "null";
    return;
  }
  char buf[32];
  auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v);
  (void)ec;  // 32 bytes always fit the shortest form of a double
  out.append(buf, end);
}

void Value::dump_to(std::string& out) const {
  switch (v_.index()) {
    case 0: out += "null"; break;
    case 1: out += std::get<bool>(v_) ? "true" : "false"; break;
    case 2: number_to(out, std::get<double>(v_)); break;
    case 3: quote_to(out, std::get<std::string>(v_)); break;
    case 4: {
      out += '[';
      bool first = true;
      for (const Value& item : std::get<Array>(v_)) {
        if (!first) out += ", ";
        first = false;
        item.dump_to(out);
      }
      out += ']';
      break;
    }
    default: {
      out += '{';
      bool first = true;
      for (const auto& [k, item] : std::get<Object>(v_)) {
        if (!first) out += ", ";
        first = false;
        quote_to(out, k);
        out += ": ";
        item.dump_to(out);
      }
      out += '}';
    }
  }
}

Value parse(std::string_view text) { return Parser(text).document(); }

}  // namespace parcel::perf::json

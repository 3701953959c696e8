#include "util/strings.hpp"

#include <algorithm>
#include <cctype>
#include <cstdarg>
#include <cstdio>
#include <cstring>

namespace parcel::util {

namespace {

// Case folding for the ASCII letters only: the scanners match ASCII
// keywords, and every other byte compares as itself (what std::tolower
// does in the "C" locale, without the locale lookup per byte).
constexpr char ascii_lower(char c) {
  return c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a') : c;
}

constexpr char ascii_upper(char c) {
  return c >= 'a' && c <= 'z' ? static_cast<char>(c - 'a' + 'A') : c;
}

}  // namespace

std::string_view trim(std::string_view s) {
  std::size_t b = 0;
  while (b < s.size() && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  std::size_t e = s.size();
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

std::vector<std::string_view> split(std::string_view s, char delim) {
  std::vector<std::string_view> out;
  std::size_t start = 0;
  while (start <= s.size()) {
    std::size_t pos = s.find(delim, start);
    if (pos == std::string_view::npos) {
      out.push_back(s.substr(start));
      break;
    }
    out.push_back(s.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

bool starts_with_ignore_case(std::string_view s, std::string_view prefix) {
  if (s.size() < prefix.size()) return false;
  return iequals(s.substr(0, prefix.size()), prefix);
}

bool iequals(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (ascii_lower(a[i]) != ascii_lower(b[i])) return false;
  }
  return true;
}

std::string to_lower(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

std::size_t ifind(std::string_view hay, std::string_view needle,
                  std::size_t pos) {
  constexpr std::size_t npos = std::string_view::npos;
  if (needle.empty()) return pos <= hay.size() ? pos : npos;
  if (hay.size() < needle.size() || pos > hay.size() - needle.size()) {
    return npos;
  }
  // Candidates are the offsets holding either case of the needle's first
  // byte; memchr jumps between them, and only they pay for a compare.
  // Each case keeps its own next-occurrence cursor, so every byte of the
  // haystack is searched at most once per case.
  const std::size_t last = hay.size() - needle.size();  // last viable start
  const std::string_view rest = needle.substr(1);
  const char lo = ascii_lower(needle[0]);
  const char up = ascii_upper(needle[0]);
  auto next = [&](char c, std::size_t from) -> std::size_t {
    if (from > last) return npos;
    const void* hit = std::memchr(hay.data() + from, c, last + 1 - from);
    return hit == nullptr
               ? npos
               : static_cast<std::size_t>(static_cast<const char*>(hit) -
                                          hay.data());
  };
  std::size_t next_lo = next(lo, pos);
  std::size_t next_up = lo == up ? npos : next(up, pos);
  for (;;) {
    const std::size_t i = std::min(next_lo, next_up);
    if (i == npos) return npos;
    if (iequals(hay.substr(i + 1, rest.size()), rest)) return i;
    if (i == next_lo) {
      next_lo = next(lo, i + 1);
    } else {
      next_up = next(up, i + 1);
    }
  }
}

std::string format_bytes(long long bytes) {
  char buf[64];
  double b = static_cast<double>(bytes);
  if (bytes < 1024) {
    std::snprintf(buf, sizeof(buf), "%lld B", bytes);
  } else if (bytes < 1024 * 1024) {
    std::snprintf(buf, sizeof(buf), "%.1f KB", b / 1024.0);
  } else {
    std::snprintf(buf, sizeof(buf), "%.2f MB", b / (1024.0 * 1024.0));
  }
  return buf;
}

std::string ssprintf(const char* fmt, ...) {
  va_list ap;
  va_start(ap, fmt);
  va_list ap2;
  va_copy(ap2, ap);
  int n = std::vsnprintf(nullptr, 0, fmt, ap);
  va_end(ap);
  std::string out;
  if (n > 0) {
    out.resize(static_cast<std::size_t>(n));
    std::vsnprintf(out.data(), out.size() + 1, fmt, ap2);
  }
  va_end(ap2);
  return out;
}

}  // namespace parcel::util

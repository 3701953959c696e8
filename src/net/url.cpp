#include "net/url.hpp"

#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

namespace parcel::net {

namespace {

/// Collapse "." and ".." segments (RFC 3986 §5.2.4 remove_dot_segments,
/// plus dropping empty segments). Absolute paths only. A path whose last
/// segment is empty, "." or ".." names a directory and keeps its trailing
/// slash.
std::string normalize_path(std::string_view path) {
  std::vector<std::string_view> kept;
  bool directory = false;
  std::size_t pos = 0;
  while (pos <= path.size()) {
    std::size_t next = path.find('/', pos);
    std::string_view seg = next == std::string_view::npos
                               ? path.substr(pos)
                               : path.substr(pos, next - pos);
    if (seg == "..") {
      if (!kept.empty()) kept.pop_back();
    } else if (!seg.empty() && seg != ".") {
      kept.push_back(seg);
    }
    if (next == std::string_view::npos) {
      directory = seg.empty() || seg == "." || seg == "..";
      break;
    }
    pos = next + 1;
  }
  std::string out;
  for (std::string_view seg : kept) {
    out += "/";
    out += std::string(seg);
  }
  // push_back, not = "/": assigning a literal here trips a GCC 12
  // -Wrestrict false positive (PR105329) once inlined into resolve().
  if (out.empty() || directory) out.push_back('/');
  return out;
}

/// Length of the "scheme://" prefix `text` starts with, or 0. A scheme
/// is a letter followed by letters, digits, '+', '-' or '.' (RFC 3986
/// §3.1), so a "://" later in the text (inside a query, say) is no scheme.
std::size_t scheme_prefix(std::string_view text) {
  auto is_alpha = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z');
  };
  if (text.empty() || !is_alpha(text[0])) return 0;
  std::size_t i = 1;
  while (i < text.size() &&
         (is_alpha(text[i]) || (text[i] >= '0' && text[i] <= '9') ||
          text[i] == '+' || text[i] == '-' || text[i] == '.')) {
    ++i;
  }
  return text.substr(i).starts_with("://") ? i + 3 : 0;
}

/// `text` up to its first '#': fragments never reach the server.
std::string_view drop_fragment(std::string_view text) {
  return text.substr(0, text.find('#'));
}

/// Split "path?query" at the first '?'.
std::pair<std::string_view, std::string_view> split_query(
    std::string_view text) {
  auto q = text.find('?');
  if (q == std::string_view::npos) return {text, {}};
  return {text.substr(0, q), text.substr(q + 1)};
}

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

std::uint64_t fnv1a(std::uint64_t h, std::string_view s) {
  for (unsigned char c : s) {
    h ^= c;
    h *= kFnvPrime;
  }
  return h;
}

/// Component separator: a byte that cannot occur inside a component, so
/// ("ab","c") and ("a","bc") intern differently.
std::uint64_t fnv1a_sep(std::uint64_t h) {
  h ^= 0xffU;
  h *= kFnvPrime;
  return h;
}

}  // namespace

std::uint64_t intern_key(std::string_view text) {
  return fnv1a(kFnvOffset, text);
}

const Url::Rep& Url::default_rep() {
  struct Default : Rep {
    Default() { intern(); }
  };
  static const Default rep;
  return rep;
}

void Url::Rep::intern() {
  std::uint64_t h = fnv1a(kFnvOffset, scheme);
  h = fnv1a(fnv1a_sep(h), host);
  std::uint64_t host_path = fnv1a(fnv1a_sep(h), path);
  id.v = fnv1a(fnv1a_sep(host_path), query);
  // without_query() is host + path: intern exactly that text so lookups
  // built from either side agree.
  std::uint64_t host_only = fnv1a(kFnvOffset, host);
  norm_id.v = fnv1a(host_only, path);
  // Same text-interning as intern_key(host()), so both probes agree.
  host_id.v = host_only;
}

bool Url::operator==(const Url& o) const {
  if (rep_ == o.rep_) return true;
  const Rep& a = rep();
  const Rep& b = o.rep();
  return a.id == b.id && a.scheme == b.scheme && a.host == b.host &&
         a.path == b.path && a.query == b.query;
}

Url Url::parse(std::string_view text) {
  auto rep = std::make_unique<Rep>();
  text = drop_fragment(text);
  if (std::size_t prefix = scheme_prefix(text); prefix > 0) {
    rep->scheme = std::string(text.substr(0, prefix - 3));
    text.remove_prefix(prefix);
  }
  const std::size_t host_end = text.find_first_of("/?");
  std::string_view host_part = text.substr(0, host_end);
  if (host_part.empty()) {
    throw std::invalid_argument("Url::parse: empty host in '" +
                                std::string(text) + "'");
  }
  rep->host = std::string(host_part);
  if (host_end != std::string_view::npos) {
    auto [path, query] = split_query(text.substr(host_end));
    if (!path.empty()) rep->path = std::string(path);
    rep->query = std::string(query);
  }
  rep->intern();
  return Url(rep.release());
}

Url Url::resolve(std::string_view ref) const {
  ref = drop_fragment(ref);
  if (ref.empty()) return *this;
  if (scheme_prefix(ref) > 0) return parse(ref);
  if (ref.starts_with("//")) return parse(scheme() + ":" + std::string(ref));
  auto rep = std::make_unique<Rep>();
  rep->scheme = scheme();
  rep->host = host();
  auto [ref_path, ref_query] = split_query(ref);
  rep->query = std::string(ref_query);
  if (ref_path.empty()) {
    // A query alone replaces only the base's query.
    rep->path = path();
  } else if (ref_path.starts_with('/')) {
    rep->path = std::string(ref_path);
  } else {
    // Relative path: resolve against the base directory, collapsing any
    // "./" and "../" segments.
    const std::string& base = path();
    auto dir_end = base.rfind('/');
    std::string dir =
        dir_end == std::string::npos ? "/" : base.substr(0, dir_end + 1);
    rep->path = normalize_path(dir + std::string(ref_path));
  }
  rep->intern();
  return Url(rep.release());
}

std::string Url::str() const {
  std::string s = scheme() + "://" + host() + path();
  if (!query().empty()) s += "?" + query();
  return s;
}

std::string Url::without_query() const { return host() + path(); }

}  // namespace parcel::net

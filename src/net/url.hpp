// Minimal URL type: scheme://host/path?query. Enough for the browser and
// proxy to route requests by domain, detect HTTPS (PARCEL bypasses its
// proxy for encrypted pages, §4.5), and normalize replay variability.
//
// A Url is one pointer to an immutable, reference-counted record holding
// the four components and their interned ids (DESIGN.md §6). Every object
// URL travels browser → proxy → origin and back inside requests,
// responses, ledger entries and closures; copying one bumps a count
// instead of copying four strings. The count is atomic because the
// parallel runner's workers copy the Urls of one shared WebPage.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>

namespace parcel::net {

/// Interned key for a URL or domain: 64-bit FNV-1a over the canonical
/// text. A pure function of the bytes — parallel workers agree on every
/// key with zero coordination, and ids are identical across runs, jobs
/// counts and processes (the determinism bar). Hash maps keyed by UrlId
/// replace the request-path std::map<std::string,...> lookups; a
/// cross-URL collision is possible in principle (~2^-64 per pair), so
/// consumers that store the full object verify on hit.
struct UrlId {
  std::uint64_t v = 0;
  bool operator==(const UrlId&) const = default;
};

/// UrlId is already a mixed 64-bit hash; use it directly as the bucket
/// index.
struct UrlIdHash {
  std::size_t operator()(UrlId id) const {
    return static_cast<std::size_t>(id.v);
  }
};

/// FNV-1a of `text` — the interning primitive behind UrlId, also used
/// directly for domain-keyed routing tables.
[[nodiscard]] std::uint64_t intern_key(std::string_view text);

class Url {
 public:
  /// http:///, the empty host at the root. Allocates nothing: it reads a
  /// shared static record.
  Url() noexcept = default;
  Url(const Url& o) noexcept : rep_(o.rep_) {
    if (rep_ != nullptr) rep_->refs.fetch_add(1, std::memory_order_relaxed);
  }
  Url(Url&& o) noexcept : rep_(std::exchange(o.rep_, nullptr)) {}
  Url& operator=(const Url& o) noexcept {
    Url copy(o);
    std::swap(rep_, copy.rep_);
    return *this;
  }
  Url& operator=(Url&& o) noexcept {
    Url taken(std::move(o));
    std::swap(rep_, taken.rep_);
    return *this;
  }
  ~Url() { release(); }

  /// Parse "scheme://host/path?query#fragment". Scheme defaults to http,
  /// path to /; the host ends at the first '/', '?' or '#', and the
  /// fragment is dropped. A scheme is recognised only at the start.
  /// Throws std::invalid_argument on an empty host.
  static Url parse(std::string_view text);

  /// Resolve `ref` against this URL as base (RFC 3986 §5.2): an absolute
  /// URL (one that starts with "scheme://"), "//host/...", an absolute or
  /// relative path, or a query alone. Relative paths collapse "." and
  /// ".." segments and keep a trailing slash; fragments are dropped.
  [[nodiscard]] Url resolve(std::string_view ref) const;

  [[nodiscard]] const std::string& scheme() const { return rep().scheme; }
  [[nodiscard]] const std::string& host() const { return rep().host; }
  [[nodiscard]] const std::string& path() const { return rep().path; }
  [[nodiscard]] const std::string& query() const { return rep().query; }

  [[nodiscard]] bool is_https() const { return scheme() == "https"; }

  [[nodiscard]] std::string str() const;

  /// Length of str() without building it — wire-size accounting runs per
  /// request and only needs the byte count.
  [[nodiscard]] std::size_t str_size() const {
    const Rep& r = rep();
    return r.scheme.size() + 3 + r.host.size() + r.path.size() +
           (r.query.empty() ? 0 : 1 + r.query.size());
  }

  /// Host + path, no query: the replay store keys on this after
  /// normalization strips cache-busting query params.
  [[nodiscard]] std::string without_query() const;

  /// Interned identity of the full URL (scheme/host/path/query),
  /// precomputed by parse/resolve — request paths key hash maps on this
  /// instead of building str() strings.
  [[nodiscard]] UrlId id() const { return rep().id; }

  /// Interned identity of without_query() (host + path), the key servers
  /// use to resolve cache-busted URLs to the canonical object.
  [[nodiscard]] UrlId normalized_id() const { return rep().norm_id; }

  /// Interned identity of host() alone — equals intern_key(host()), so
  /// domain-keyed tables (DNS cache, origin routing) can be probed from a
  /// Url without touching the host string.
  [[nodiscard]] UrlId host_id() const { return rep().host_id; }

  /// Same record, or equal components. Differing ids prove the
  /// components differ, so most unequal pairs stop there.
  bool operator==(const Url& o) const;

 private:
  /// The shared record. Built once by parse/resolve and never written
  /// after a Url holds it, so readers on any thread need no lock.
  struct Rep {
    std::string scheme = "http";
    std::string host;
    std::string path = "/";
    std::string query;
    UrlId id;
    UrlId norm_id;
    UrlId host_id;
    std::atomic<std::uint32_t> refs{1};

    /// Compute the interned ids from the components; parse and resolve
    /// call it before publishing the record.
    void intern();
  };

  explicit Url(Rep* rep) noexcept : rep_(rep) {}

  /// The record a default or moved-from Url reads: a function-local
  /// static, so no count is ever touched on it.
  static const Rep& default_rep();

  [[nodiscard]] const Rep& rep() const {
    return rep_ != nullptr ? *rep_ : default_rep();
  }

  void release() noexcept {
    if (rep_ != nullptr &&
        rep_->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      delete rep_;
    }
  }

  Rep* rep_ = nullptr;
};

}  // namespace parcel::net

template <>
struct std::hash<parcel::net::Url> {
  std::size_t operator()(const parcel::net::Url& u) const {
    return static_cast<std::size_t>(u.id().v);
  }
};

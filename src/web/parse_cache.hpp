// ParseCache: corpus-wide memoization of scan artifacts (HTML tokens,
// CSS references, JS programs).
//
// The evaluation grid re-runs the same immutable page snapshots under
// every scheme and round (§7), so each content string is tokenized many
// times — on the client engine and again on the proxy engine — with
// bit-identical results. This cache parses each distinct content once and
// shares the artifact read-only across every run and every
// ParallelRunner worker.
//
// Keying. An entry is addressed by the scanned *bytes*: each table maps
// a string_view key to its slot, hashed with std::hash<std::string_view>
// and compared byte for byte, so a lookup hits whenever the same bytes
// are cached, whichever string holds them. That matters for PARCEL: the
// client scans objects unpacked from an MHTML bundle, which are fresh
// copies of corpus strings the proxy engine already scanned. The key view
// points into the entry's own content pin (the shared string it was first
// scanned from), so it lives exactly as long as the entry. Inline
// <script> bodies, views into the middle of a document, key on their own
// bytes the same way.
//
// Identity index. Most warm lookups (over 90 % of hits in each
// parcel_bench workload) pass the very bytes an entry was first scanned
// from (a corpus string, or an inline script's view into the document
// pin a lookup returned), so each table also maps the entry's own
// (data pointer, size) to its slot. A lookup on those bytes hits
// without hashing or comparing them; any other buffer (a bundle copy)
// misses the index and goes on to the content map. Only addresses
// inside an entry's pin are indexed, and the pin keeps those immutable
// bytes alive for as long as the entry exists, so no other live string
// can sit at an indexed address: an identity hit means equal bytes. The
// index entry is dropped with its slot (sweep_transient(), clear()), so
// a later string that reuses a freed address is looked up by content.
//
// Pins. A hit returns views into the entry's pin, not into the caller's
// string, so every lookup returns the pin together with the artifact
// (Parsed<T>). Callers keep the returned pin while they use the artifact,
// and pass it on as the pin of any nested lookup (an inline script's view
// lies inside the returned document pin, not the caller's copy).
//
// Concurrency. A fixed array of shards, each a mutex-guarded map of
// once-init slots: the first requester parses (outside the shard lock,
// guarded by the slot's once_flag), every later requester — on any
// thread — gets the same immutable artifact. Determinism is by
// construction: scanners are pure functions of the content bytes, so a
// cached artifact is byte-for-byte the artifact a fresh scan would
// produce; cache on/off and any --jobs value yield bitwise-identical
// RunResults.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"
#include "web/html.hpp"
#include "web/js.hpp"

namespace parcel::web {

/// A scan artifact together with the string its views borrow from. On a
/// cache hit `pin` is the entry's pin, which may be a different string
/// (with equal bytes) from the one the caller passed in.
template <typename T>
struct Parsed {
  std::shared_ptr<const T> artifact;
  std::shared_ptr<const std::string> pin;

  const T& operator*() const { return *artifact; }
  const T* operator->() const { return artifact.get(); }
};

class ParseCache {
 public:
  /// Process-wide cache instance shared by every engine.
  static ParseCache& instance();

  /// Global toggle (default on; PARCEL_PARSE_CACHE=0 in the environment
  /// disables it at startup). With the cache off every call scans fresh —
  /// results are bitwise identical either way.
  static void set_enabled(bool enabled);
  [[nodiscard]] static bool enabled();

  /// Memoized MiniHtml::scan. `doc` must lie inside `pin`'s bytes
  /// (std::logic_error otherwise); `pin` is usually the whole string. A
  /// miss retains `pin` in the new entry; a hit returns the entry's pin.
  /// With a null pin or the cache disabled, the text is scanned fresh and
  /// the returned pin is the caller's (null pin: the caller must keep the
  /// backing string alive while the artifact is in use).
  Parsed<std::vector<HtmlToken>> html(
      std::string_view doc, const std::shared_ptr<const std::string>& pin);

  /// Memoized MiniCss::scan (same pinning contract as html()).
  Parsed<std::vector<Reference>> css(
      std::string_view sheet, const std::shared_ptr<const std::string>& pin);

  /// Memoized MiniJs::run reference-extraction (same pinning contract).
  /// Also serves inline <script> bodies: the view into the surrounding
  /// document is the text, and the pin returned by the document's html()
  /// lookup is the pin.
  Parsed<JsProgram> js(std::string_view code,
                       const std::shared_ptr<const std::string>& pin);

  struct Stats {
    std::uint64_t html_hits = 0, html_misses = 0;
    std::uint64_t css_hits = 0, css_misses = 0;
    std::uint64_t js_hits = 0, js_misses = 0;
    [[nodiscard]] std::uint64_t hits() const {
      return html_hits + css_hits + js_hits;
    }
    [[nodiscard]] std::uint64_t misses() const {
      return html_misses + css_misses + js_misses;
    }
    [[nodiscard]] double hit_rate() const {
      std::uint64_t total = hits() + misses();
      return total == 0 ? 0.0 : static_cast<double>(hits()) /
                                    static_cast<double>(total);
    }
  };
  [[nodiscard]] Stats stats() const;
  void reset_stats();

  /// Drop every entry (and the content pins they hold). Outstanding
  /// artifact shared_ptrs stay valid — entries release, artifacts don't.
  void clear();

  /// Drop dead entries: those where this cache holds the *only* reference
  /// to the slot, the artifact, and the content pin. No caller owns those
  /// bytes any more, so the entry is retained memory that would hit only
  /// if the same bytes were produced again. Bundle-unpacked copies of live
  /// corpus content hit the corpus entry and add none; transient entries
  /// come only from content that is actually new, and land here once the
  /// session that produced it ends. Corpus content stays cached because
  /// its generator/replay-store owner still pins it. Streaming fleet runs
  /// sweep once per epoch to keep memory bounded in K (DESIGN.md §12).
  /// Returns the number of entries dropped. Thread-safe; concurrent
  /// lookups hold slot/pin references and are skipped.
  /// Locks every shard through a std::unique_lock vector, a pattern the
  /// static lock analysis cannot express — hence the opt-out.
  std::size_t sweep_transient() PARCEL_NO_THREAD_SAFETY_ANALYSIS;

  /// Number of cached artifacts across all kinds (for tests/benches).
  [[nodiscard]] std::size_t size() const;

 private:
  ParseCache() = default;

  /// One once-init slot per distinct content. `artifact` is written
  /// exactly once under `once`; `pin` keeps the scanned bytes alive for
  /// the entry's lifetime, and `text` (also the table key) views them.
  template <typename T>
  struct Slot {
    std::once_flag once;
    std::shared_ptr<const T> artifact;
    std::shared_ptr<const std::string> pin;
    std::string_view text;
  };

  /// An entry's own bytes, by address: (text.data(), text.size()).
  struct Identity {
    const char* data;
    std::size_t size;
    bool operator==(const Identity&) const = default;
  };
  struct IdentityHash {
    std::size_t operator()(const Identity& id) const {
      return std::hash<const char*>{}(id.data) ^
             (id.size * 0x9e3779b97f4a7c15ULL);
    }
  };

  template <typename T>
  struct Table {
    std::unordered_map<std::string_view, std::shared_ptr<Slot<T>>> slots;
    /// Identity index into `slots`. It points at the map's own node
    /// value (stable across rehash) rather than holding a second
    /// reference, so a slot's use count still tells sweep_transient()
    /// whether a caller holds it.
    std::unordered_map<Identity, std::shared_ptr<Slot<T>>*, IdentityHash>
        by_identity;
  };

  struct Shard {
    mutable util::Mutex mutex;
    Table<std::vector<HtmlToken>> html PARCEL_GUARDED_BY(mutex);
    Table<std::vector<Reference>> css PARCEL_GUARDED_BY(mutex);
    Table<JsProgram> js PARCEL_GUARDED_BY(mutex);
  };

  static constexpr std::size_t kShards = 16;

  /// Shard choice only spreads lock contention, so it reads the length
  /// alone (Fibonacci-hashed) instead of hashing the bytes a second time.
  [[nodiscard]] Shard& shard_for(std::string_view text) {
    return shards_[((text.size() * 0x9e3779b97f4a7c15ULL) >> 32) % kShards];
  }

  template <typename T, typename Scan>
  Parsed<T> lookup(Table<T> Shard::*table, std::string_view text,
                   const std::shared_ptr<const std::string>& pin,
                   std::atomic<std::uint64_t>& hits,
                   std::atomic<std::uint64_t>& misses, Scan scan);

  Shard shards_[kShards];
  std::atomic<std::uint64_t> html_hits_{0}, html_misses_{0};
  std::atomic<std::uint64_t> css_hits_{0}, css_misses_{0};
  std::atomic<std::uint64_t> js_hits_{0}, js_misses_{0};
};

}  // namespace parcel::web

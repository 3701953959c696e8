#include "web/parse_cache.hpp"

#include <functional>
#include <mutex>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "web/css.hpp"

namespace parcel::web {

ParseCache& ParseCache::instance() {
  static ParseCache cache;
  return cache;
}

template <typename T, typename Scan>
Parsed<T> ParseCache::lookup(Table<T> Shard::*table, std::string_view text,
                             const std::shared_ptr<const std::string>& pin,
                             std::atomic<std::uint64_t>& hits,
                             std::atomic<std::uint64_t>& misses, Scan scan) {
  if (pin == nullptr) {
    // Uncached scan: the artifact still borrows from `text`; the caller
    // keeps the backing string alive.
    misses.fetch_add(1, std::memory_order_relaxed);
    return {std::make_shared<const T>(scan(text)), pin};
  }
  // The entry's key must view bytes its pin owns; std::less gives the
  // total pointer order the raw operators do not promise.
  const std::less_equal<const char*> le;
  if (!le(pin->data(), text.data()) ||
      !le(text.data() + text.size(), pin->data() + pin->size())) {
    throw std::logic_error("ParseCache: scanned text lies outside its pin");
  }

  Shard& shard = shard_for(text);
  std::shared_ptr<Slot<T>> slot;
  bool inserted = false;
  {
    util::MutexLock lock(shard.mutex);
    Table<T>& t = shard.*table;
    const Identity id{text.data(), text.size()};
    if (auto own = t.by_identity.find(id); own != t.by_identity.end()) {
      slot = *own->second;
    } else {
      auto it = t.slots.find(text);
      if (it == t.slots.end()) {
        auto fresh = std::make_shared<Slot<T>>();
        fresh->pin = pin;  // pins the keyed bytes for the entry's life
        fresh->text = text;
        it = t.slots.emplace(text, std::move(fresh)).first;
        // `text` lies inside `pin`, now the entry's pin: safe to index.
        t.by_identity.emplace(id, &it->second);
        inserted = true;
      }
      slot = it->second;
    }
  }
  // Parse outside the shard lock; call_once makes concurrent requesters
  // for the *same* content wait for one scan instead of racing duplicates.
  // The scan reads the slot's own view, so the artifact borrows from the
  // entry's pin whichever requester runs it. The finished artifact is
  // published under the shard mutex: concurrent requesters already
  // synchronize through the once-flag, but sweep_transient() inspects
  // artifact handles while holding every shard lock, so the store must
  // happen under that lock too.
  std::call_once(slot->once, [&] {
    auto artifact = std::make_shared<const T>(scan(slot->text));
    util::MutexLock lock(shard.mutex);
    slot->artifact = std::move(artifact);
  });
  if (inserted) {
    misses.fetch_add(1, std::memory_order_relaxed);
  } else {
    hits.fetch_add(1, std::memory_order_relaxed);
  }
  return {slot->artifact, slot->pin};
}

Parsed<std::vector<HtmlToken>> ParseCache::html(
    std::string_view doc, const std::shared_ptr<const std::string>& pin) {
  return lookup(&Shard::html, doc, pin, html_hits_, html_misses_,
                [](std::string_view text) { return MiniHtml::scan(text); });
}

Parsed<std::vector<Reference>> ParseCache::css(
    std::string_view sheet, const std::shared_ptr<const std::string>& pin) {
  return lookup(&Shard::css, sheet, pin, css_hits_, css_misses_,
                [](std::string_view text) { return MiniCss::scan(text); });
}

Parsed<JsProgram> ParseCache::js(std::string_view code,
                                 const std::shared_ptr<const std::string>& pin) {
  return lookup(&Shard::js, code, pin, js_hits_, js_misses_,
                [](std::string_view text) { return MiniJs::run(text); });
}

ParseCache::Stats ParseCache::stats() const {
  Stats s;
  s.html_hits = html_hits_.load(std::memory_order_relaxed);
  s.html_misses = html_misses_.load(std::memory_order_relaxed);
  s.css_hits = css_hits_.load(std::memory_order_relaxed);
  s.css_misses = css_misses_.load(std::memory_order_relaxed);
  s.js_hits = js_hits_.load(std::memory_order_relaxed);
  s.js_misses = js_misses_.load(std::memory_order_relaxed);
  return s;
}

void ParseCache::reset_stats() {
  html_hits_ = 0;
  html_misses_ = 0;
  css_hits_ = 0;
  css_misses_ = 0;
  js_hits_ = 0;
  js_misses_ = 0;
}

void ParseCache::clear() {
  for (Shard& shard : shards_) {
    util::MutexLock lock(shard.mutex);
    shard.html = {};
    shard.css = {};
    shard.js = {};
  }
}

std::size_t ParseCache::sweep_transient() {
  // Entries sharing one backing string (a document and the inline
  // <script> views keyed into it — possibly in different shards) hold
  // that string's use count above 1 forever, so deadness is a property
  // of the pin *group*, not of any single entry. All shard locks are
  // taken (fixed array order; lookup() never nests shard locks, so this
  // cannot deadlock), which freezes the tables: a group whose pin count
  // is fully accounted for by its member entries has no outside owner,
  // and no new outside reference can appear without an existing one.
  std::vector<std::unique_lock<util::Mutex>> locks;
  locks.reserve(kShards);
  for (Shard& shard : shards_) {
    locks.emplace_back(shard.mutex);
  }

  // Pass 1: per pinned string, count member entries and record whether
  // any member is externally referenced (a concurrent lookup holds the
  // slot; a live artifact still borrows views from the string).
  struct Group {
    long members = 0;
    long pin_uses = 0;
    bool external = false;
  };
  // parcel-lint: allow(unordered-iter) erase-only sweep; which entries die is order-independent and no simulated result observes the cache
  std::unordered_map<const std::string*, Group> groups;
  auto scan = [&groups](auto& table) {
    // parcel-lint: allow(unordered-iter) count-only pass; group totals are iteration-order independent and no simulated result observes the cache
    for (auto& entry : table.slots) {
      const auto& slot = entry.second;
      Group& g = groups[slot->pin.get()];
      ++g.members;
      g.pin_uses = slot->pin.use_count();
      if (slot.use_count() != 1 || slot->artifact.use_count() > 1) {
        g.external = true;
      }
    }
  };
  for (Shard& shard : shards_) {
    scan(shard.html);
    scan(shard.css);
    scan(shard.js);
  }

  // Pass 2: erase every member of each dead group. Deadness was decided
  // above — erasing members drops the pin count, so it must not be
  // re-read here.
  std::size_t dropped = 0;
  auto sweep = [&groups, &dropped](auto& table) {
    // parcel-lint: allow(unordered-iter) erase-only sweep; which entries die is order-independent and no simulated result observes the cache
    for (auto it = table.slots.begin(); it != table.slots.end();) {
      const Group& g = groups.at(it->second->pin.get());
      if (!g.external && g.pin_uses == g.members) {
        const std::string_view text = it->second->text;
        table.by_identity.erase({text.data(), text.size()});
        it = table.slots.erase(it);
        ++dropped;
      } else {
        ++it;
      }
    }
  };
  for (Shard& shard : shards_) {
    sweep(shard.html);
    sweep(shard.css);
    sweep(shard.js);
  }
  return dropped;
}

std::size_t ParseCache::size() const {
  std::size_t n = 0;
  for (const Shard& shard : shards_) {
    util::MutexLock lock(shard.mutex);
    n += shard.html.slots.size() + shard.css.slots.size() +
         shard.js.slots.size();
  }
  return n;
}

}  // namespace parcel::web

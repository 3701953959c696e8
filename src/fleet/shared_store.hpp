// SharedObjectStore: the per-proxy artifact cache a fleet of sessions
// shares (ISSUE 5, tentpole a).
//
// The paper evaluates one client against one proxy, but its premise is a
// well-provisioned proxy serving *many* cellular users. The first user to
// load a page makes the proxy fetch every object and parse/scan the text
// ones; once those artifacts exist, later sessions of the same page need
// neither the origin fetch nor the re-parse — exactly the warming effect
// web::ParseCache exploits within one process, lifted to the fleet model
// as a first-class simulated resource with hit/miss/byte-saved accounting.
//
// Keying is by pointer identity (ParseCache, by contrast, keys on the
// bytes): replayed corpus snapshots hold their text bodies in immutable
// shared strings created once, so the (data pointer, length) of an
// object's content names its bytes uniquely; the entry retains the owning
// shared_ptr so the keyed address can never be recycled while the entry
// lives. Opaque bodies (images, media — no content string in the model)
// are keyed by interned URL id + size.
//
// The store is unbounded: nothing is ever evicted, so its contents — like
// every other part of the fleet model — are a pure function of the
// request sequence and replay bit-for-bit.
//
// Lock discipline (DESIGN.md §14.3): none, by contract. The store
// belongs to the fleet macro-simulation, which runs on a single
// sim::Scheduler timeline; the per-client micro-simulations fanned out
// by core::ParallelRunner never touch it. There is deliberately no mutex
// here — adding one would hide a layering mistake (macro-state reached
// from a worker thread) instead of crashing loudly under TSan. If fleet
// state ever does need a lock, use util::Mutex and annotate the guarded
// members with PARCEL_GUARDED_BY (src/util/thread_annotations.hpp);
// parcel-lint's mutex-unannotated rule enforces this for src/fleet.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>

#include "net/url.hpp"
#include "util/units.hpp"
#include "web/object.hpp"

namespace parcel::fleet {

class SharedObjectStore {
 public:
  /// Would a request for `object` hit the store right now? (No state
  /// change — admission control peeks before a client commits.)
  [[nodiscard]] bool contains(const web::WebObject& object) const;

  struct Outcome {
    bool hit = false;
    /// Origin bytes the proxy did NOT have to move because of the hit.
    util::Bytes bytes_saved = 0;
  };

  /// Record one session's need for `object`: a hit bumps the counters and
  /// saves the fetch; a miss inserts the artifact so the *next* session
  /// hits.
  Outcome request(const web::WebObject& object);

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    util::Bytes bytes_saved = 0;   // cumulative, over all hits
    util::Bytes bytes_stored = 0;  // currently resident
    [[nodiscard]] double hit_rate() const {
      std::uint64_t total = hits + misses;
      return total == 0 ? 0.0
                        : static_cast<double>(hits) /
                              static_cast<double>(total);
    }
    /// Sum another store's flow counters in. bytes_stored is a
    /// point-in-time gauge, not a flow, so it is left alone.
    Stats& operator+=(const Stats& o) {
      hits += o.hits;
      misses += o.misses;
      bytes_saved += o.bytes_saved;
      return *this;
    }
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] std::size_t entries() const { return entries_.size(); }

  /// Drop every entry; counters are kept (a fleet run's totals survive).
  void clear();

  /// Contents-only copy for epoch-parallel fleet execution (ISSUE 7): the
  /// resident entries and bytes_stored carry over; the hit/miss/
  /// bytes_saved counters start at zero so per-epoch stats merge by plain
  /// summation.
  [[nodiscard]] SharedObjectStore fork_contents() const;

  /// Same resident contents (keys and sizes)? Counters are ignored — this is the epoch boundary invariant check:
  /// epoch E's ending store must equal epoch E+1's starting snapshot.
  [[nodiscard]] bool contents_equal(const SharedObjectStore& other) const;

 private:
  // Content identity: text bodies key on (data pointer, length) and
  // opaque bodies on (url id, length) with a
  // null pointer. The two spaces cannot collide (live pointers are
  // non-null and never equal a hash value reinterpreted as an address
  // because the pointer field disambiguates via `opaque`).
  struct Key {
    const char* data = nullptr;
    std::uint64_t aux = 0;  // length for text; url-id for opaque
    util::Bytes size = 0;
    bool opaque = false;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const {
      std::size_t h = std::hash<const void*>{}(k.data);
      h ^= k.aux + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
      h ^= static_cast<std::size_t>(k.size) + (h << 6) + (h >> 2);
      return h;
    }
  };
  struct Entry {
    util::Bytes size = 0;
    /// Keeps the keyed content address alive (null for opaque bodies).
    std::shared_ptr<const std::string> pin;
  };

  static Key key_for(const web::WebObject& object);

  std::unordered_map<Key, Entry, KeyHash> entries_;
  Stats stats_;
};

}  // namespace parcel::fleet

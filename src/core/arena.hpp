// Per-run bump allocation (ROADMAP item 3; DESIGN.md §11).
//
// Every experiment run allocates the same shape of transient state —
// scheduler event entries, browser fetch-cache/ledger bookkeeping, and
// the packet-trace columns — and throws all of it away when the run
// finishes. core::Arena is a monotonic chunked bump allocator for exactly
// that lifetime: allocation is a pointer bump, deallocation is a no-op,
// and the whole run's memory is released (or recycled via reset()) in one
// step. core::ArenaResource adapts it to std::pmr so the hot containers
// opt in without new container types.
//
// Plumbing: ExperimentRunner::run (and fleet::run_fleet for the macro
// timeline) installs a thread-local ArenaScope; components that want
// per-run storage construct their pmr containers from run_resource(),
// which yields the active scope's arena, or the default new/delete
// resource outside any scope. Results must never retain arena memory:
// anything that outlives the run (RunResult and friends) keeps
// default-resource containers, so the pmr handoff (copy/move-assignment
// across unequal resources) lands element-wise on the global heap.
//
// Lifetime checking: the arena never returns memory to the heap during a
// run, so AddressSanitizer alone cannot see a view that dangles into a
// pmr buffer its container has already released. ASan builds therefore
// poison the arena by hand (DESIGN.md §11): fresh and reset chunks are
// poisoned whole, allocate() unpoisons exactly the bytes it returns,
// ArenaResource::do_deallocate poisons them again, and one poisoned
// 8-byte granule separates neighbouring allocations. Other builds compile
// none of it.
//
// The header is intentionally self-contained (header-only): sim/, trace/
// and browser/ sit below core in the link order and still inline
// everything they need.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <memory_resource>
#include <new>
#include <vector>

#include "util/sanitizer.hpp"

#ifdef PARCEL_ASAN
#include <sanitizer/asan_interface.h>
#endif

namespace parcel::core {

namespace detail {
#ifdef PARCEL_ASAN
/// One ASan shadow granule: the minimum alignment of an arena allocation
/// and the poisoned gap left after it, so no two allocations share a
/// granule and an overflow into a neighbour is reported.
inline constexpr std::size_t kAsanGranule = 8;
inline void asan_poison(const void* p, std::size_t n) {
  __asan_poison_memory_region(p, n);
}
inline void asan_unpoison(const void* p, std::size_t n) {
  __asan_unpoison_memory_region(p, n);
}
#else
inline constexpr std::size_t kAsanGranule = 0;
inline void asan_poison(const void*, std::size_t) {}
inline void asan_unpoison(const void*, std::size_t) {}
#endif
}  // namespace detail

/// Monotonic chunked bump allocator. Not thread-safe: one arena belongs
/// to one run on one worker thread (the ArenaScope install is
/// thread-local for the same reason).
class Arena {
 public:
  static constexpr std::size_t kDefaultChunkBytes = 256 * 1024;

  explicit Arena(std::size_t chunk_bytes = kDefaultChunkBytes)
      : chunk_bytes_(chunk_bytes == 0 ? kDefaultChunkBytes : chunk_bytes) {}
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Bump-allocate `bytes` aligned to `align` (which must be a power of
  /// two). Never returns nullptr; throws std::bad_alloc like operator new
  /// when the host is out of memory.
  void* allocate(std::size_t bytes,
                 std::size_t align = alignof(std::max_align_t)) {
    if (bytes == 0) bytes = 1;
    if (align < detail::kAsanGranule) align = detail::kAsanGranule;
    ++allocations_;
    bytes_requested_ += bytes;
    if (active_ < chunks_.size()) {
      if (void* p = bump(chunks_[active_], bytes, align)) return p;
      // Retained chunks from before a reset() may still have room.
      while (active_ + 1 < chunks_.size()) {
        ++active_;
        if (void* p = bump(chunks_[active_], bytes, align)) return p;
      }
    }
    return allocate_slow(bytes, align);
  }

  /// Rewind every chunk to empty, retaining capacity. Objects previously
  /// allocated from the arena must already be dead (their destructors are
  /// the owner's business; the arena never runs them).
  void reset() {
    for (Chunk& c : chunks_) {
      c.used = 0;
      detail::asan_poison(c.data.get(), c.size);
    }
    active_ = 0;
    bytes_requested_ = 0;
    allocations_ = 0;
    ++resets_;
  }

  // --- Stats (RunResult::arena_bytes, gated per load by ctest) ----------
  [[nodiscard]] std::size_t bytes_allocated() const {
    return bytes_requested_;
  }
  [[nodiscard]] std::size_t bytes_reserved() const {
    std::size_t n = 0;
    for (const Chunk& c : chunks_) n += c.size;
    return n;
  }
  [[nodiscard]] std::size_t chunk_count() const { return chunks_.size(); }
  [[nodiscard]] std::size_t allocation_count() const { return allocations_; }
  [[nodiscard]] std::size_t reset_count() const { return resets_; }

 private:
  struct Chunk {
    std::unique_ptr<std::byte[]> data;
    std::size_t size = 0;
    std::size_t used = 0;
  };

  static void* bump(Chunk& c, std::size_t bytes, std::size_t align) {
    // Align the address, not the offset: operator new[] only guarantees
    // the chunk base is aligned to the default new alignment (16), so an
    // aligned offset from an insufficiently aligned base is not enough
    // for stricter requests.
    auto base = reinterpret_cast<std::uintptr_t>(c.data.get());
    std::uintptr_t p =
        (base + c.used + align - 1) & ~(static_cast<std::uintptr_t>(align) - 1);
    if (p + bytes > base + c.size) return nullptr;
    c.used = static_cast<std::size_t>(p + bytes - base);
    if constexpr (detail::kAsanGranule > 0) {
      // The poisoned gap before the next allocation.
      c.used = std::min(c.used + detail::kAsanGranule, c.size);
    }
    void* out = reinterpret_cast<void*>(p);
    detail::asan_unpoison(out, bytes);
    return out;
  }

  void* allocate_slow(std::size_t bytes, std::size_t align) {
    // Geometric chunk growth keeps chunk count logarithmic in run size;
    // an oversized request gets a dedicated chunk so it cannot strand a
    // near-empty one.
    std::size_t want = chunk_bytes_ << (chunks_.size() < 8 ? chunks_.size()
                                                           : 8);
    if (bytes + align > want) want = bytes + align;
    Chunk c;
    // Not value-initialised: a fleet-stream session bumps through about
    // 21 KB of its first 256 KiB chunk, so zero-filling it all was waste.
    c.data = std::make_unique_for_overwrite<std::byte[]>(want);
    c.size = want;
    detail::asan_poison(c.data.get(), c.size);
    chunks_.push_back(std::move(c));
    active_ = chunks_.size() - 1;
    void* p = bump(chunks_.back(), bytes, align);
    if (p == nullptr) throw std::bad_alloc();
    return p;
  }

  std::size_t chunk_bytes_;
  std::vector<Chunk> chunks_;
  std::size_t active_ = 0;
  std::size_t bytes_requested_ = 0;
  std::size_t allocations_ = 0;
  std::size_t resets_ = 0;
};

/// std::pmr adapter: containers constructed from this resource bump out
/// of the arena and never return memory (deallocate only re-poisons the
/// bytes in ASan builds).
class ArenaResource final : public std::pmr::memory_resource {
 public:
  explicit ArenaResource(Arena& arena) : arena_(&arena) {}
  [[nodiscard]] Arena& arena() { return *arena_; }

 private:
  void* do_allocate(std::size_t bytes, std::size_t align) override {
    return arena_->allocate(bytes, align);
  }
  void do_deallocate(void* p, std::size_t bytes,
                     std::size_t) noexcept override {
    detail::asan_poison(p, bytes);
  }
  [[nodiscard]] bool do_is_equal(
      const std::pmr::memory_resource& other) const noexcept override {
    return this == &other;
  }

  Arena* arena_;
};

namespace detail {
inline std::pmr::memory_resource*& tls_run_resource() {
  thread_local std::pmr::memory_resource* current = nullptr;
  return current;
}
}  // namespace detail

/// The memory resource per-run containers should draw from: the innermost
/// active ArenaScope's arena on this thread, else the default resource.
[[nodiscard]] inline std::pmr::memory_resource* run_resource() {
  std::pmr::memory_resource* r = detail::tls_run_resource();
  return r != nullptr ? r : std::pmr::get_default_resource();
}

/// RAII install of an arena as this thread's run resource. Scopes nest:
/// the previous resource is restored on destruction.
class ArenaScope {
 public:
  explicit ArenaScope(Arena& arena)
      : resource_(arena), prev_(detail::tls_run_resource()) {
    detail::tls_run_resource() = &resource_;
  }
  ArenaScope(const ArenaScope&) = delete;
  ArenaScope& operator=(const ArenaScope&) = delete;
  ~ArenaScope() { detail::tls_run_resource() = prev_; }

 private:
  ArenaResource resource_;
  std::pmr::memory_resource* prev_;
};

}  // namespace parcel::core

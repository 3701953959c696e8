// util::Callback<R(Args...)>: a move-only type-erased callable with inline
// storage, for the per-event kernel path (scheduler slots, link
// deliveries, the TCP and DNS continuations; DESIGN.md §11).
//
// std::function is the wrong tool there, for two reasons. It must be
// copyable, so a continuation that captures another continuation copies
// the whole chain or wraps it in a shared_ptr. And libstdc++ keeps only
// 16 bytes inline, so nearly every closure the simulator schedules (a
// `this` pointer plus a time, a byte count and a BurstInfo) costs a
// malloc and a free per event.
//
// Callback is move-only and keeps closures of up to kInlineBytes in the
// object itself, so schedule_at(when, lambda) constructs the closure
// straight into its scheduler slot. A larger closure (in practice, one
// that wraps another Callback as it moves down the link -> TCP -> HTTP
// chain) goes to a block from a thread-local cache of four size classes
// (64 to 512 bytes) rather than to the global heap; beyond that, or once
// a class holds kCacheBytesPerClass, blocks come from and return to
// operator new/delete. ASan builds compile the cache out, so every block
// is a real heap allocation and a use after destruction is still
// reported (the arena's convention, DESIGN.md §11).
//
// Set-once hooks that are copied on purpose (path factories, link taps,
// event sinks, listeners) stay std::function.
#pragma once

#include <cstddef>
#include <cstring>
#include <functional>
#include <new>
#include <type_traits>
#include <utility>

#include "util/sanitizer.hpp"

namespace parcel::util {

namespace detail {

/// Size classes of the closure block cache: class c holds blocks of
/// kMinBlockBytes << c bytes.
inline constexpr std::size_t kBlockClasses = 4;
inline constexpr std::size_t kMinBlockBytes = 64;
inline constexpr std::size_t kMaxBlockBytes = kMinBlockBytes
                                              << (kBlockClasses - 1);
/// Freed blocks a class keeps before returning them to the heap, in
/// bytes: the cache holds at most 64 KiB per thread. A 120-object page
/// load needs less than that to stay off the heap once warm; a larger cap
/// only keeps blocks other allocations could have reused (peak RSS).
inline constexpr std::size_t kCacheBytesPerClass = 16 * 1024;

[[nodiscard]] constexpr std::size_t block_class(std::size_t bytes) {
  std::size_t c = 0;
  while ((kMinBlockBytes << c) < bytes) ++c;
  return c;
}

#ifndef PARCEL_ASAN
/// Set by the cache's destructor at thread exit; a block released after
/// it (by an object that outlives the thread's cache) goes straight back
/// to the heap.
inline thread_local bool tls_block_cache_gone = false;

/// Per-thread free lists of closure blocks, one per size class.
class BlockCache {
 public:
  BlockCache() = default;
  BlockCache(const BlockCache&) = delete;
  BlockCache& operator=(const BlockCache&) = delete;
  ~BlockCache() {
    for (Node*& head : heads_) {
      while (head != nullptr) {
        Node* n = head;
        head = n->next;
        ::operator delete(n);
      }
    }
    tls_block_cache_gone = true;
  }

  void* take(std::size_t cls) {
    if (Node* n = heads_[cls]) {
      heads_[cls] = n->next;
      --counts_[cls];
      return n;
    }
    return ::operator new(kMinBlockBytes << cls);
  }

  void give(std::size_t cls, void* p) {
    if ((counts_[cls] + 1) * (kMinBlockBytes << cls) > kCacheBytesPerClass) {
      ::operator delete(p);
      return;
    }
    heads_[cls] = ::new (p) Node{heads_[cls]};
    ++counts_[cls];
  }

 private:
  struct Node {
    Node* next;
  };
  Node* heads_[kBlockClasses] = {};
  std::size_t counts_[kBlockClasses] = {};
};

inline BlockCache& block_cache() {
  thread_local BlockCache cache;
  return cache;
}
#endif

/// A block of at least `bytes` for a closure too large to keep inline.
[[nodiscard]] inline void* acquire_block(std::size_t bytes) {
#ifndef PARCEL_ASAN
  if (bytes <= kMaxBlockBytes && !tls_block_cache_gone) {
    return block_cache().take(block_class(bytes));
  }
#endif
  return ::operator new(bytes);
}

/// Return a block from acquire_block(bytes).
inline void release_block(void* p, std::size_t bytes) noexcept {
#ifndef PARCEL_ASAN
  if (bytes <= kMaxBlockBytes && !tls_block_cache_gone) {
    block_cache().give(block_class(bytes), p);
    return;
  }
#else
  (void)bytes;
#endif
  ::operator delete(p);
}

template <class T>
struct IsStdFunction : std::false_type {};
template <class S>
struct IsStdFunction<std::function<S>> : std::true_type {};

}  // namespace detail

template <class Sig>
class Callback;

template <class R, class... Args>
class Callback<R(Args...)> {
 public:
  /// Closures up to this size, with at most pointer alignment and a
  /// noexcept move, are stored inline; sizeof(Callback) is 64.
  static constexpr std::size_t kInlineBytes = 56;

  Callback() noexcept = default;
  Callback(std::nullptr_t) noexcept {}  // NOLINT: implicit, like std::function

  /// Wrap `f`. An empty std::function or a null function pointer makes an
  /// empty Callback, as it would an empty std::function.
  template <class F, class D = std::decay_t<F>>
    requires(!std::is_same_v<D, Callback> &&
             std::is_invocable_r_v<R, D&, Args...>)
  Callback(F&& f) {  // NOLINT: implicit, like std::function
    if constexpr (detail::IsStdFunction<D>::value || std::is_pointer_v<D> ||
                  std::is_member_pointer_v<D>) {
      if (!f) return;
    }
    if constexpr (kFitsInline<D>) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
      ops_ = &Inline<D>::kOps;
    } else {
      static_assert(alignof(D) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__,
                    "over-aligned closure");
      void* block = detail::acquire_block(sizeof(D));
      try {
        D* boxed = ::new (block) D(std::forward<F>(f));
        std::memcpy(buf_, &boxed, sizeof(boxed));
      } catch (...) {
        detail::release_block(block, sizeof(D));
        throw;
      }
      ops_ = &Boxed<D>::kOps;
    }
  }

  Callback(Callback&& other) noexcept { steal(other); }
  Callback& operator=(Callback&& other) noexcept {
    if (this != &other) {
      reset();
      steal(other);
    }
    return *this;
  }
  Callback& operator=(std::nullptr_t) noexcept {
    reset();
    return *this;
  }
  Callback(const Callback&) = delete;
  Callback& operator=(const Callback&) = delete;
  ~Callback() { reset(); }

  [[nodiscard]] explicit operator bool() const noexcept {
    return ops_ != nullptr;
  }

  /// Invoke the closure. Calling an empty Callback is undefined. Like
  /// std::function, a const Callback still calls a mutable closure.
  R operator()(Args... args) const {
    return ops_->invoke(buf_, std::forward<Args>(args)...);
  }

 private:
  struct Ops {
    R (*invoke)(void* storage, Args&&... args);
    /// Move-construct into `dst` and destroy the source; null when
    /// copying the first `bytes` bytes of the storage does both.
    void (*relocate)(void* dst, void* src) noexcept;
    std::size_t bytes;
    /// Destroy the closure; null when there is nothing to do.
    void (*destroy)(void* storage) noexcept;
  };

  template <class D>
  static constexpr bool kFitsInline =
      sizeof(D) <= kInlineBytes && alignof(D) <= alignof(void*) &&
      std::is_nothrow_move_constructible_v<D>;

  template <class D>
  struct Inline {
    static D* get(void* s) { return std::launder(static_cast<D*>(s)); }
    static R invoke(void* s, Args&&... args) {
      return std::invoke(*get(s), std::forward<Args>(args)...);
    }
    static void relocate(void* dst, void* src) noexcept {
      D* from = get(src);
      ::new (dst) D(std::move(*from));
      from->~D();
    }
    static void destroy(void* s) noexcept { get(s)->~D(); }
    static constexpr Ops kOps{
        &invoke, std::is_trivially_copyable_v<D> ? nullptr : &relocate,
        std::is_empty_v<D> ? 0 : sizeof(D),
        std::is_trivially_destructible_v<D> ? nullptr : &destroy};
  };

  template <class D>
  struct Boxed {
    static D* get(void* s) {
      D* p;
      std::memcpy(&p, s, sizeof(p));
      return p;
    }
    static R invoke(void* s, Args&&... args) {
      return std::invoke(*get(s), std::forward<Args>(args)...);
    }
    static void destroy(void* s) noexcept {
      D* p = get(s);
      p->~D();
      detail::release_block(p, sizeof(D));
    }
    // The storage holds only the pointer, so moving is a byte copy.
    static constexpr Ops kOps{&invoke, nullptr, sizeof(D*), &destroy};
  };

  void steal(Callback& other) noexcept {
    ops_ = other.ops_;
    if (ops_ == nullptr) return;
    if (ops_->relocate != nullptr) {
      ops_->relocate(buf_, other.buf_);
    } else {
      std::memcpy(buf_, other.buf_, ops_->bytes);
    }
    other.ops_ = nullptr;
  }

  void reset() noexcept {
    if (ops_ == nullptr) return;
    if (ops_->destroy != nullptr) ops_->destroy(buf_);
    ops_ = nullptr;
  }

  alignas(void*) mutable std::byte buf_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

}  // namespace parcel::util

// util::Rc<T>: a single-threaded reference-counted box, for state that
// several continuations of one run share (a TCP burst's retransmission
// guard, an object fetch's retry state, the scheduler's liveness token;
// DESIGN.md §11).
//
// std::shared_ptr is the wrong tool there. The library is linked with
// threads, so every copy and every destruction of a shared_ptr is a
// lock-prefixed atomic add or subtract, and it carries a weak count and
// a control block that nothing on the event path needs. An Rc's count is
// a plain integer and it has no weak references, so a copy is one
// increment and a release one decrement and a compare.
//
// An Rc never crosses threads: every copy of one box must be made, used
// and destroyed on the thread that made the box. That holds for anything
// owned by one run (one Scheduler per run, DESIGN.md §5). State that
// parallel workers share (page content, parse-cache artifacts) stays
// std::shared_ptr.
//
// The box comes from the thread's closure block cache (util/callback.hpp),
// so a box freed by one event is reused by the next instead of going back
// to the global heap; ASan builds compile the cache out, and LeakSanitizer
// reports a box whose count never reached zero.
#pragma once

#include <cstddef>
#include <new>
#include <utility>

#include "util/callback.hpp"

namespace parcel::util {

template <class T>
class Rc {
 public:
  /// Empty: holds no box.
  Rc() noexcept = default;

  /// A new box holding T(args...), with a count of one.
  template <class... Args>
  [[nodiscard]] static Rc make(Args&&... args) {
    static_assert(alignof(Box) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__,
                  "over-aligned Rc value");
    void* block = detail::acquire_block(sizeof(Box));
    try {
      return Rc(::new (block) Box{T(std::forward<Args>(args)...), 1});
    } catch (...) {
      detail::release_block(block, sizeof(Box));
      throw;
    }
  }

  Rc(const Rc& other) noexcept : box_(other.box_) {
    if (box_ != nullptr) ++box_->count;
  }
  Rc(Rc&& other) noexcept : box_(std::exchange(other.box_, nullptr)) {}
  // Copy-and-swap: self-assignment and assigning a box's last other
  // reference both stay correct.
  Rc& operator=(const Rc& other) noexcept {
    Rc(other).swap(*this);
    return *this;
  }
  Rc& operator=(Rc&& other) noexcept {
    Rc(std::move(other)).swap(*this);
    return *this;
  }
  ~Rc() { release(); }

  void swap(Rc& other) noexcept { std::swap(box_, other.box_); }

  [[nodiscard]] explicit operator bool() const noexcept {
    return box_ != nullptr;
  }
  [[nodiscard]] T* get() const noexcept {
    return box_ != nullptr ? &box_->value : nullptr;
  }
  [[nodiscard]] T& operator*() const noexcept { return box_->value; }
  [[nodiscard]] T* operator->() const noexcept { return &box_->value; }
  /// References to the box (0 when empty).
  [[nodiscard]] std::size_t use_count() const noexcept {
    return box_ != nullptr ? box_->count : 0;
  }

 private:
  struct Box {
    T value;
    std::size_t count;
  };

  explicit Rc(Box* box) noexcept : box_(box) {}

  void release() noexcept {
    if (box_ == nullptr || --box_->count != 0) return;
    destroy(std::exchange(box_, nullptr));
  }

  // Out of line: inlined into a caller that holds another Rc to the same
  // box, the free would make GCC's -Wuse-after-free flag that Rc's later
  // reads, since it cannot see that their shared count is still positive.
  [[gnu::noinline]] static void destroy(Box* box) noexcept {
    box->~Box();
    detail::release_block(box, sizeof(Box));
  }

  Box* box_ = nullptr;
};

}  // namespace parcel::util

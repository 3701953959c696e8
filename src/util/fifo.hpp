// util::Fifo<T>: a growable ring buffer for the kernel's short FIFO
// queues (a connection's waiting requests and streams, the pool's
// per-domain backlogs).
//
// std::deque fits those queues badly. It allocates a map and a 512-byte
// block when constructed, and every connection and link of a run builds
// its queues whether it uses them or not. Its elements here are 80 to
// 300 bytes, one to six per block, so a queue that only ever holds one
// or two elements still allocates and frees a block every few pushes as
// it moves along. Fifo allocates nothing until the first push, then
// keeps a power-of-two ring that grows by doubling and is reused as the
// queue cycles: a queue's storage stops growing at its peak length.
#pragma once

#include <cstddef>
#include <memory>
#include <new>
#include <utility>

namespace parcel::util {

template <class T>
class Fifo {
 public:
  Fifo() = default;
  Fifo(Fifo&& other) noexcept
      : buf_(std::exchange(other.buf_, nullptr)),
        cap_(std::exchange(other.cap_, 0)),
        head_(std::exchange(other.head_, 0)),
        size_(std::exchange(other.size_, 0)) {}
  Fifo& operator=(Fifo&& other) noexcept {
    if (this != &other) {
      release();
      buf_ = std::exchange(other.buf_, nullptr);
      cap_ = std::exchange(other.cap_, 0);
      head_ = std::exchange(other.head_, 0);
      size_ = std::exchange(other.size_, 0);
    }
    return *this;
  }
  Fifo(const Fifo&) = delete;
  Fifo& operator=(const Fifo&) = delete;
  ~Fifo() { release(); }

  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }

  [[nodiscard]] T& front() { return buf_[head_]; }
  [[nodiscard]] const T& front() const { return buf_[head_]; }

  template <class... Args>
  T& emplace_back(Args&&... args) {
    if (size_ == cap_) grow();
    T* slot = ::new (static_cast<void*>(buf_ + ((head_ + size_) & (cap_ - 1))))
        T(std::forward<Args>(args)...);
    ++size_;
    return *slot;
  }
  void push_back(T&& value) { emplace_back(std::move(value)); }

  void pop_front() {
    std::destroy_at(buf_ + head_);
    head_ = (head_ + 1) & (cap_ - 1);
    --size_;
  }

 private:
  void grow() {
    const std::size_t cap = cap_ == 0 ? 4 : 2 * cap_;
    T* buf = std::allocator<T>{}.allocate(cap);
    for (std::size_t i = 0; i < size_; ++i) {
      T* from = buf_ + ((head_ + i) & (cap_ - 1));
      ::new (static_cast<void*>(buf + i)) T(std::move(*from));
      std::destroy_at(from);
    }
    if (buf_ != nullptr) std::allocator<T>{}.deallocate(buf_, cap_);
    buf_ = buf;
    cap_ = cap;
    head_ = 0;
  }

  void release() {
    while (size_ > 0) pop_front();
    if (buf_ != nullptr) std::allocator<T>{}.deallocate(buf_, cap_);
    buf_ = nullptr;
    cap_ = 0;
  }

  T* buf_ = nullptr;
  std::size_t cap_ = 0;  // zero or a power of two
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace parcel::util

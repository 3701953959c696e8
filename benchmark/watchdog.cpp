#include "watchdog.hpp"

#include <algorithm>

namespace parcel::perf {

namespace {

std::chrono::steady_clock::rep now_ticks() {
  return std::chrono::steady_clock::now().time_since_epoch().count();
}

}  // namespace

Watchdog::Watchdog(std::chrono::milliseconds limit, OnStall on_stall)
    : limit_(limit),
      on_stall_(std::move(on_stall)),
      last_beat_(now_ticks()),
      thread_([this] { watch(); }) {}

Watchdog::~Watchdog() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  wake_.notify_all();
  thread_.join();
}

void Watchdog::beat() { last_beat_.store(now_ticks(), std::memory_order_relaxed); }

void Watchdog::watch() {
  using std::chrono::milliseconds;
  const milliseconds poll =
      std::clamp(limit_ / 4, milliseconds(1), milliseconds(1000));
  std::unique_lock<std::mutex> lock(mutex_);
  while (!wake_.wait_for(lock, poll, [this] { return stop_; })) {
    const auto idle = std::chrono::duration_cast<milliseconds>(
        std::chrono::steady_clock::duration(
            now_ticks() - last_beat_.load(std::memory_order_relaxed)));
    if (idle < limit_) continue;
    fired_.store(true);
    lock.unlock();
    try {
      on_stall_(idle);
    } catch (...) {
      // fired() already records the stall; an exception escaping the
      // thread's entry function would call std::terminate instead.
    }
    return;
  }
}

}  // namespace parcel::perf

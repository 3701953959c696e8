// Stall watchdog: an idle thread that calls `on_stall` once when no
// progress beat has arrived for `limit`. The benchmark uses it to turn a
// simulation that stops advancing (a livelocked scheduler re-firing the
// same events forever) into a diagnosed exit instead of a wedged process.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <thread>

namespace parcel::perf {

class Watchdog {
 public:
  using OnStall = std::function<void(std::chrono::milliseconds idle)>;

  /// Starts watching immediately; the construction counts as a beat.
  Watchdog(std::chrono::milliseconds limit, OnStall on_stall);
  /// Stops and joins the watch thread.
  ~Watchdog();
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;
  Watchdog(Watchdog&&) = delete;
  Watchdog& operator=(Watchdog&&) = delete;

  /// Records progress. Lock-free; called once per op.
  void beat();
  [[nodiscard]] bool fired() const { return fired_.load(); }

 private:
  void watch();

  const std::chrono::milliseconds limit_;
  const OnStall on_stall_;
  std::atomic<std::chrono::steady_clock::rep> last_beat_;
  std::atomic<bool> fired_{false};
  std::mutex mutex_;
  std::condition_variable wake_;
  bool stop_ = false;  // guarded by mutex_
  std::thread thread_;  // last: starts after every member it reads exists
};

}  // namespace parcel::perf

// Discrete-event simulation kernel.
//
// A Scheduler owns a priority queue of timestamped callbacks. Components
// (TCP connections, the RRC machine, browsers) schedule continuations on
// it; Scheduler::run() drains the queue in time order. Events fired at the
// same instant run in scheduling order (FIFO tie-break), which keeps runs
// deterministic.
//
// Hot-path notes: the heap holds only 24-byte {when, seq, slot} keys, so
// sift moves touch no closures. Each event's closure is a util::Callback
// in a slot of a pooled deque: schedule_at(when, lambda) builds the
// lambda into the Callback's 56-byte inline buffer and moves it once,
// into the slot, with no allocation. Only a closure that wraps another
// callback (a burst's relay -> TCP -> HTTP continuation) spills, to the
// thread's callback block cache rather than the global heap
// (util/callback.hpp). Slots freed by fired or cancelled events are
// recycled through an intrusive free list, so a run's closure storage
// stops growing once it reaches the peak live count. An EventHandle names
// its event by (seq, slot), which makes cancel()/pending() O(1): the slot
// still holds the event iff its seq matches. cancel() frees the slot and
// destroys the closure at once; the event's key stays in the heap as a
// stale key (its slot no longer carries its seq), which pops skip. Once
// stale keys number at least 64 and outnumber the live ones, the heap
// drops them in place and is rebuilt; keys are unique on (when, seq), so
// the pop order does not change. The heap and the slots draw from the
// per-run arena when one is in scope (core::ArenaScope; DESIGN.md §11),
// so even their growth stops hitting the global allocator.
#pragma once

#include <cstdint>
#include <deque>
#include <memory_resource>
#include <utility>
#include <vector>

#include "core/arena.hpp"
#include "util/callback.hpp"
#include "util/rc.hpp"
#include "util/units.hpp"

namespace parcel::sim {

using util::Duration;
using util::TimePoint;

class Scheduler;

/// Handle to a scheduled event; allows cancellation. Copyable; all copies
/// refer to the same pending event. Like its scheduler, a handle belongs
/// to one thread: it holds a single-threaded count on the scheduler's
/// liveness token (util::Rc).
class EventHandle {
 public:
  EventHandle() = default;

  /// Prevent the event from firing. Safe to call after it has fired, after
  /// the scheduler is gone, or on a default-constructed handle (no-ops).
  void cancel();

  [[nodiscard]] bool pending() const;

 private:
  friend class Scheduler;
  EventHandle(util::Rc<Scheduler*> owner, std::uint64_t seq,
              std::uint32_t slot)
      : owner_(std::move(owner)), seq_(seq), slot_(slot) {}
  // The owning scheduler's liveness token (one token per scheduler, not
  // per event): it points at the scheduler until the scheduler's
  // destructor clears it. (seq, slot) identifies the event; the seq
  // disambiguates a slot reused by a later event.
  util::Rc<Scheduler*> owner_;
  std::uint64_t seq_ = 0;
  std::uint32_t slot_ = 0;
};

class Scheduler {
 public:
  /// Default: event storage from the ambient per-run arena when a
  /// core::ArenaScope is active on this thread, else the heap.
  Scheduler() : Scheduler(core::run_resource()) {}
  /// Explicit resource, for callers that manage arenas directly. The
  /// resource must outlive the scheduler.
  explicit Scheduler(std::pmr::memory_resource* mr)
      : heap_(mr), slots_(mr) {}
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;
  /// Clears the liveness token: handles that outlive the scheduler
  /// degrade to no-ops.
  ~Scheduler() { *self_ = nullptr; }

  [[nodiscard]] TimePoint now() const { return now_; }

  /// Closure type of an event.
  using Callback = util::Callback<void()>;

  /// Schedule `fn` to run at absolute time `when`. A lambda argument is
  /// built straight into the Callback parameter, which moves once, into
  /// the event's slot. Scheduling in the past is clamped to now() (fires
  /// immediately on the next run step). Throws std::invalid_argument on
  /// an empty callable (nullptr, an empty std::function or Callback).
  EventHandle schedule_at(TimePoint when, Callback fn);

  /// Schedule `fn` to run `delay` after now().
  EventHandle schedule_after(Duration delay, Callback fn) {
    return schedule_at(now_ + delay, std::move(fn));
  }

  /// Run until the queue empties. Returns the time of the last event.
  TimePoint run();

  /// Run events with timestamp <= deadline; the clock ends at `deadline`
  /// even if the queue drained earlier (mirrors the paper's fixed 60 s
  /// packet-capture window).
  void run_until(TimePoint deadline);

  /// Execute exactly one event if any is pending. Returns false if none is.
  bool step();

  /// Queued keys, stale ones included until popped or compacted.
  [[nodiscard]] std::size_t pending_events() const { return heap_.size(); }
  [[nodiscard]] std::uint64_t events_executed() const { return executed_; }

 private:
  friend class EventHandle;

  struct Key {
    TimePoint when;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  struct Later {
    bool operator()(const Key& a, const Key& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };
  static constexpr std::uint64_t kFreeSeq = ~std::uint64_t{0};
  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};
  // Compaction trigger: at least this many stale keys, and more stale
  // keys than live ones.
  static constexpr std::size_t kMinStaleToCompact = 64;
  struct Slot {
    Callback fn;
    // Seq of the event this slot holds; kFreeSeq while on the free list.
    std::uint64_t seq = kFreeSeq;
    std::uint32_t next_free = kNoSlot;
  };

  void cancel_event(std::uint64_t seq, std::uint32_t slot);
  [[nodiscard]] bool pending_event(std::uint64_t seq,
                                   std::uint32_t slot) const {
    return slots_[slot].seq == seq;
  }
  /// A key is stale once its event was cancelled: its slot was freed and
  /// holds no seq or a later event's.
  [[nodiscard]] bool stale(const Key& key) const {
    return !pending_event(key.seq, key.slot);
  }
  /// Put a slot on the free list and return its closure.
  Callback free_slot(std::uint32_t slot);
  /// Pop the front key. Returns the closure to run, freeing its slot and
  /// advancing now(), or returns empty for a stale key.
  Callback pop_front();

  TimePoint now_ = TimePoint::origin();
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  // Min-heap on (when, seq) maintained with std::push_heap/std::pop_heap.
  // A cancelled event leaves a stale key behind, skipped when popped or
  // dropped by compaction; stale_ counts them.
  std::pmr::vector<Key> heap_;
  std::size_t stale_ = 0;
  // A deque, not a vector: growth appends fixed-size blocks and never
  // relocates a slot, so the arena holds each slot once instead of every
  // outgrown copy of the array.
  std::pmr::deque<Slot> slots_;
  std::uint32_t free_head_ = kNoSlot;
  // Liveness token shared with every EventHandle; the destructor clears
  // it, so stale handles degrade to no-ops instead of dangling. Its count
  // is a plain integer: building a handle per event costs one increment,
  // dropping it one decrement, and no atomic operation.
  util::Rc<Scheduler*> self_ = util::Rc<Scheduler*>::make(this);
};

}  // namespace parcel::sim

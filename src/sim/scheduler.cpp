#include "sim/scheduler.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace parcel::sim {

void EventHandle::cancel() {
  if (owner_ && *owner_ != nullptr) (*owner_)->cancel_event(seq_, slot_);
}

bool EventHandle::pending() const {
  return owner_ && *owner_ != nullptr &&
         (*owner_)->pending_event(seq_, slot_);
}

EventHandle Scheduler::schedule_at(TimePoint when, Callback fn) {
  if (!fn) throw std::invalid_argument("schedule_at: empty callback");
  if (when < now_) when = now_;
  const std::uint64_t seq = next_seq_++;
  std::uint32_t slot = free_head_;
  if (slot == kNoSlot) {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    free_head_ = slots_[slot].next_free;
  }
  Slot& s = slots_[slot];
  s.fn = std::move(fn);
  s.seq = seq;
  heap_.push_back(Key{when, seq, slot});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  return EventHandle{self_, seq, slot};
}

void Scheduler::cancel_event(std::uint64_t seq, std::uint32_t slot) {
  // A slot reused by a later event carries a different seq, so a stale
  // handle can neither cancel nor observe its successor.
  if (slots_[slot].seq != seq) return;
  // The closure dies last, at the end of this scope: by then the queue is
  // consistent, so a destructor that cancels or schedules another event
  // (even one that compacts the heap) is safe.
  const Callback dead = free_slot(slot);
  if (++stale_ >= kMinStaleToCompact && 2 * stale_ > heap_.size()) {
    // Compaction moves keys only, so it runs no destructor. Keys are
    // unique on (when, seq): rebuilding the heap keeps the pop order.
    std::erase_if(heap_, [this](const Key& key) { return stale(key); });
    std::make_heap(heap_.begin(), heap_.end(), Later{});
    stale_ = 0;
  }
}

Scheduler::Callback Scheduler::free_slot(std::uint32_t slot) {
  Slot& s = slots_[slot];
  s.seq = kFreeSeq;
  s.next_free = free_head_;
  free_head_ = slot;
  return std::move(s.fn);
}

Scheduler::Callback Scheduler::pop_front() {
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  const Key key = heap_.back();
  heap_.pop_back();
  if (stale(key)) {
    --stale_;
    return {};
  }
  // Free the slot before the closure runs: an event the closure schedules
  // may reuse it.
  now_ = key.when;
  return free_slot(key.slot);
}

bool Scheduler::step() {
  while (!heap_.empty()) {
    Callback fn = pop_front();
    if (!fn) continue;
    ++executed_;
    fn();
    return true;
  }
  return false;
}

TimePoint Scheduler::run() {
  while (step()) {
  }
  return now_;
}

void Scheduler::run_until(TimePoint deadline) {
  while (!heap_.empty()) {
    // Pop stale keys first so the deadline check sees the next *live*
    // event. Checking the raw front is wrong: a stale head with
    // when <= deadline would pass the check, and step() — which skips
    // stale keys — would then execute a live event beyond the deadline
    // (and leave now_ past it).
    if (stale(heap_.front())) {
      pop_front();
      continue;
    }
    if (heap_.front().when > deadline) break;
    step();
  }
  if (now_ < deadline) now_ = deadline;
}

}  // namespace parcel::sim

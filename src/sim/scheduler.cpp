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
  s.cancelled = false;
  heap_.push_back(Key{when, seq, slot});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  return EventHandle{self_, seq, slot};
}

void Scheduler::cancel_event(std::uint64_t seq, std::uint32_t slot) {
  // A slot reused by a later event carries a different seq, so a stale
  // handle can neither cancel nor observe its successor.
  if (slots_[slot].seq == seq) slots_[slot].cancelled = true;
}

bool Scheduler::pending_event(std::uint64_t seq, std::uint32_t slot) const {
  return slots_[slot].seq == seq && !slots_[slot].cancelled;
}

Scheduler::Callback Scheduler::pop_front() {
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  const Key key = heap_.back();
  heap_.pop_back();
  // Move the closure out before it runs: the slot goes back on the free
  // list now, and an event the closure schedules may reuse it.
  Slot& s = slots_[key.slot];
  Callback fn = std::move(s.fn);
  const bool cancelled = s.cancelled;
  s.seq = kFreeSeq;
  s.next_free = free_head_;
  free_head_ = key.slot;
  if (cancelled) return {};  // the tombstone's closure dies here
  now_ = key.when;
  return fn;
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
    // Pop cancelled tombstones first so the deadline check sees the next
    // *live* event. Checking the raw front is wrong: a cancelled head
    // with when <= deadline would pass the check, and step() — which
    // skips tombstones — would then execute a live event beyond the
    // deadline (and leave now_ past it).
    if (slots_[heap_.front().slot].cancelled) {
      pop_front();
      continue;
    }
    if (heap_.front().when > deadline) break;
    step();
  }
  if (now_ < deadline) now_ = deadline;
}

}  // namespace parcel::sim

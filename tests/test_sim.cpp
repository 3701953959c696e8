#include <gtest/gtest.h>

#include <functional>
#include <utility>
#include <vector>

#include "sim/scheduler.hpp"

namespace parcel::sim {
namespace {

TEST(Scheduler, RunsEventsInTimeOrder) {
  Scheduler sched;
  std::vector<int> order;
  sched.schedule_at(TimePoint::at_seconds(2), [&] { order.push_back(2); });
  sched.schedule_at(TimePoint::at_seconds(1), [&] { order.push_back(1); });
  sched.schedule_at(TimePoint::at_seconds(3), [&] { order.push_back(3); });
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sched.now().sec(), 3.0);
}

TEST(Scheduler, SameTimeEventsRunFifo) {
  Scheduler sched;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sched.schedule_at(TimePoint::at_seconds(1), [&, i] { order.push_back(i); });
  }
  sched.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Scheduler, ScheduleAfterUsesCurrentTime) {
  Scheduler sched;
  double fired_at = -1;
  sched.schedule_at(TimePoint::at_seconds(1), [&] {
    sched.schedule_after(Duration::seconds(2),
                         [&] { fired_at = sched.now().sec(); });
  });
  sched.run();
  EXPECT_DOUBLE_EQ(fired_at, 3.0);
}

TEST(Scheduler, PastEventsClampToNow) {
  Scheduler sched;
  double fired_at = -1;
  sched.schedule_at(TimePoint::at_seconds(5), [&] {
    sched.schedule_at(TimePoint::at_seconds(1),
                      [&] { fired_at = sched.now().sec(); });
  });
  sched.run();
  EXPECT_DOUBLE_EQ(fired_at, 5.0);
}

TEST(Scheduler, CancelPreventsExecution) {
  Scheduler sched;
  bool fired = false;
  EventHandle h =
      sched.schedule_at(TimePoint::at_seconds(1), [&] { fired = true; });
  EXPECT_TRUE(h.pending());
  h.cancel();
  EXPECT_FALSE(h.pending());
  sched.run();
  EXPECT_FALSE(fired);
}

TEST(Scheduler, CancelAfterFireIsNoop) {
  Scheduler sched;
  EventHandle h = sched.schedule_at(TimePoint::at_seconds(1), [] {});
  sched.run();
  EXPECT_FALSE(h.pending());
  h.cancel();  // must not crash
}

TEST(Scheduler, RunUntilStopsAtDeadline) {
  Scheduler sched;
  std::vector<double> fired;
  for (double t : {1.0, 2.0, 3.0, 4.0}) {
    sched.schedule_at(TimePoint::at_seconds(t),
                      [&fired, &sched] { fired.push_back(sched.now().sec()); });
  }
  sched.run_until(TimePoint::at_seconds(2.5));
  EXPECT_EQ(fired.size(), 2u);
  EXPECT_DOUBLE_EQ(sched.now().sec(), 2.5);
  EXPECT_EQ(sched.pending_events(), 2u);
}

TEST(Scheduler, RunUntilAdvancesClockWhenQueueEmpty) {
  Scheduler sched;
  sched.run_until(TimePoint::at_seconds(10));
  EXPECT_DOUBLE_EQ(sched.now().sec(), 10.0);
}

TEST(Scheduler, StepExecutesExactlyOne) {
  Scheduler sched;
  int count = 0;
  sched.schedule_at(TimePoint::at_seconds(1), [&] { ++count; });
  sched.schedule_at(TimePoint::at_seconds(2), [&] { ++count; });
  EXPECT_TRUE(sched.step());
  EXPECT_EQ(count, 1);
  EXPECT_TRUE(sched.step());
  EXPECT_FALSE(sched.step());
  EXPECT_EQ(sched.events_executed(), 2u);
}

TEST(Scheduler, RejectsEmptyCallback) {
  Scheduler sched;
  EXPECT_THROW(sched.schedule_at(TimePoint::origin(), nullptr),
               std::invalid_argument);
}

TEST(Scheduler, RunUntilSkipsCancelledHeadWithoutOverrunningDeadline) {
  // Regression: a cancelled event's key at the heap front with
  // when <= deadline used to pass run_until's check, and step() — which
  // skips such keys — then executed the next *live* event beyond the
  // deadline, leaving now_ past it.
  Scheduler sched;
  bool late_fired = false;
  EventHandle head =
      sched.schedule_at(TimePoint::at_seconds(1), [] { FAIL(); });
  sched.schedule_at(TimePoint::at_seconds(5), [&] { late_fired = true; });
  head.cancel();
  sched.run_until(TimePoint::at_seconds(2));
  EXPECT_FALSE(late_fired);
  EXPECT_DOUBLE_EQ(sched.now().sec(), 2.0);
  EXPECT_EQ(sched.pending_events(), 1u);
  sched.run();
  EXPECT_TRUE(late_fired);
}

TEST(Scheduler, RunUntilDrainsConsecutiveCancelledHeads) {
  Scheduler sched;
  std::vector<EventHandle> handles;
  for (double t : {0.5, 0.6, 0.7}) {
    handles.push_back(
        sched.schedule_at(TimePoint::at_seconds(t), [] { FAIL(); }));
  }
  bool fired = false;
  sched.schedule_at(TimePoint::at_seconds(1), [&] { fired = true; });
  for (EventHandle& h : handles) h.cancel();
  sched.run_until(TimePoint::at_seconds(3));
  EXPECT_TRUE(fired);
  EXPECT_DOUBLE_EQ(sched.now().sec(), 3.0);
  EXPECT_EQ(sched.pending_events(), 0u);
}

TEST(Scheduler, DuplicateCancelIsIdempotent) {
  Scheduler sched;
  bool fired = false;
  EventHandle h =
      sched.schedule_at(TimePoint::at_seconds(1), [&] { fired = true; });
  EventHandle copy = h;
  h.cancel();
  copy.cancel();  // second cancel of the same event: no-op
  h.cancel();
  sched.run();
  EXPECT_FALSE(fired);
  EXPECT_FALSE(copy.pending());
}

TEST(Scheduler, HandleOutlivingSchedulerDegradesToNoop) {
  EventHandle h;
  {
    Scheduler sched;
    h = sched.schedule_at(TimePoint::at_seconds(1), [] {});
  }
  EXPECT_FALSE(h.pending());
  h.cancel();  // must not touch freed memory
}

TEST(Scheduler, HandleCopiesAndMovesOutlivingSchedulerDegradeToNoops) {
  EventHandle copy;
  EventHandle moved;
  EventHandle assigned;
  {
    Scheduler sched;
    EventHandle h = sched.schedule_at(TimePoint::at_seconds(1), [] {});
    copy = h;
    EventHandle temp = h;
    moved = std::move(temp);
    EventHandle(h).cancel();  // a temporary copy cancels the event
    assigned = sched.schedule_at(TimePoint::at_seconds(2), [] {});
    EXPECT_FALSE(copy.pending());
    EXPECT_TRUE(assigned.pending());
  }
  // The scheduler is gone, its token is not: every handle still reads it.
  for (EventHandle* h : {&copy, &moved, &assigned}) {
    EXPECT_FALSE(h->pending());
    h->cancel();
  }
  EventHandle late = copy;  // copying a stale handle is fine too
  EXPECT_FALSE(late.pending());
}

TEST(Scheduler, CancelOnAMovedFromHandleIsANoop) {
  Scheduler sched;
  bool fired = false;
  EventHandle h =
      sched.schedule_at(TimePoint::at_seconds(1), [&] { fired = true; });
  EventHandle owner = std::move(h);
  h.cancel();  // NOLINT(bugprone-use-after-move): must not cancel the event
  EXPECT_FALSE(h.pending());  // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(owner.pending());
  EventHandle reassigned;
  reassigned = std::move(owner);
  owner.cancel();  // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(reassigned.pending());
  sched.run();
  EXPECT_TRUE(fired);
  EXPECT_FALSE(reassigned.pending());
}

TEST(Scheduler, EventsCanScheduleMoreEvents) {
  Scheduler sched;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) sched.schedule_after(Duration::seconds(1), recurse);
  };
  sched.schedule_at(TimePoint::origin(), recurse);
  sched.run();
  EXPECT_EQ(depth, 5);
  EXPECT_DOUBLE_EQ(sched.now().sec(), 4.0);
}

TEST(Scheduler, StaleHandleCannotReachItsSlotsNextEvent) {
  // Each scheduler pools closure slots: with one event pending at a time,
  // every event below lands in the same slot.
  Scheduler sched;
  EventHandle fired = sched.schedule_at(TimePoint::at_seconds(1), [] {});
  sched.run();
  EventHandle cancelled =
      sched.schedule_at(TimePoint::at_seconds(2), [] { FAIL(); });
  cancelled.cancel();  // frees the slot at once
  sched.run();         // pops the stale key; nothing runs

  bool ran = false;
  EventHandle live =
      sched.schedule_at(TimePoint::at_seconds(3), [&] { ran = true; });
  EXPECT_FALSE(fired.pending());
  EXPECT_FALSE(cancelled.pending());
  EXPECT_TRUE(live.pending());
  fired.cancel();
  cancelled.cancel();
  EXPECT_TRUE(live.pending());
  EXPECT_EQ(sched.pending_events(), 1u);
  sched.run();
  EXPECT_TRUE(ran);
  EXPECT_FALSE(live.pending());
}

TEST(Scheduler, CancelRescheduleChurnKeepsCountAndFifo) {
  // A re-armed timer (cancel, then schedule again) interleaved with live
  // same-time events, twice over, so the second pass reuses the slots
  // the first pass freed.
  Scheduler sched;
  std::vector<int> order;
  for (int pass = 0; pass < 2; ++pass) {
    EventHandle timer;
    for (int i = 0; i < 50; ++i) {
      sched.schedule_at(sched.now() + Duration::seconds(1),
                        [&order, i] { order.push_back(i); });
      timer.cancel();
      timer = sched.schedule_at(sched.now() + Duration::seconds(1),
                                [&order] { order.push_back(-1); });
      // Stale keys stay queued (and counted) until popped: fewer than 64
      // never trigger a compaction.
      EXPECT_EQ(sched.pending_events(), static_cast<std::size_t>(2 * i + 2));
    }
    EXPECT_TRUE(timer.pending());
    sched.run();
    EXPECT_EQ(sched.pending_events(), 0u);
    EXPECT_FALSE(timer.pending());
  }
  std::vector<int> want;
  for (int pass = 0; pass < 2; ++pass) {
    for (int i = 0; i < 50; ++i) want.push_back(i);
    want.push_back(-1);  // only the last arming survives
  }
  EXPECT_EQ(order, want);
  EXPECT_EQ(sched.events_executed(), 102u);
}

TEST(Scheduler, CancelChurnPastTheCompactionTriggerKeepsFifo) {
  // 500 rounds of one live same-time event and three cancel-and-rearms of
  // a timer: stale keys outgrow live ones, so the heap compacts many times
  // over. Each re-armed timer reuses the slot its predecessor's cancel
  // freed, so every old handle names the slot the live timer holds.
  constexpr int kRounds = 500;
  constexpr int kRearms = 3;
  Scheduler sched;
  std::vector<int> order;
  std::vector<EventHandle> old_timers;
  EventHandle timer;
  std::size_t drops = 0;
  std::size_t prev = 0;
  for (int i = 0; i < kRounds; ++i) {
    sched.schedule_at(TimePoint::at_seconds(1),
                      [&order, i] { order.push_back(i); });
    for (int r = 0; r < kRearms; ++r) {
      if (timer.pending()) old_timers.push_back(timer);
      timer.cancel();
      EXPECT_FALSE(timer.pending());
      timer = sched.schedule_at(TimePoint::at_seconds(1),
                                [&order] { order.push_back(-1); });
    }
    const std::size_t queued = sched.pending_events();
    if (queued < prev) ++drops;
    prev = queued;
    // Live: i + 1 events and the timer. Stale: under 64, or at most as
    // many as the live keys.
    EXPECT_LE(queued, static_cast<std::size_t>(2 * (i + 2) + 64));
  }
  EXPECT_GT(drops, 0u);  // compaction ran
  for (EventHandle& h : old_timers) {
    EXPECT_FALSE(h.pending());
    h.cancel();  // must not reach the timer now in its slot
  }
  EXPECT_TRUE(timer.pending());
  sched.run();
  std::vector<int> want;
  for (int i = 0; i < kRounds; ++i) want.push_back(i);
  want.push_back(-1);  // only the last arming survives
  EXPECT_EQ(order, want);
  EXPECT_EQ(sched.events_executed(), static_cast<std::uint64_t>(kRounds + 1));
  EXPECT_EQ(sched.pending_events(), 0u);
}

/// Runs an action when the instance that owns it dies; moved-from shells
/// do nothing.
class OnDestroy {
 public:
  explicit OnDestroy(std::function<void()> fn) : fn_(std::move(fn)) {}
  OnDestroy(OnDestroy&& o) noexcept : fn_(std::exchange(o.fn_, nullptr)) {}
  OnDestroy(const OnDestroy&) = delete;
  OnDestroy& operator=(const OnDestroy&) = delete;
  OnDestroy& operator=(OnDestroy&&) = delete;
  ~OnDestroy() {
    if (fn_) fn_();
  }

 private:
  std::function<void()> fn_;
};

TEST(Scheduler, CancelledClosureMayCancelAndScheduleFromItsDestructor) {
  // The cancelled closure dies after the queue is consistent again, so
  // its destructor may use the scheduler. With 63 stale keys queued, the
  // outer cancel compacts the heap and the inner one adds a stale key.
  Scheduler sched;
  for (int i = 0; i < 63; ++i) {
    sched.schedule_at(TimePoint::at_seconds(1), [] { FAIL(); }).cancel();
  }
  EXPECT_EQ(sched.pending_events(), 63u);
  bool second_fired = false;
  bool third_fired = false;
  EventHandle second = sched.schedule_at(TimePoint::at_seconds(2),
                                         [&] { second_fired = true; });
  EventHandle first = sched.schedule_at(
      TimePoint::at_seconds(1),
      [guard = OnDestroy([&] {
         second.cancel();
         sched.schedule_at(TimePoint::at_seconds(3),
                           [&] { third_fired = true; });
       })] { FAIL(); });
  first.cancel();
  EXPECT_FALSE(first.pending());
  EXPECT_FALSE(second.pending());
  // Compaction left the second event's key; its cancel made it stale.
  EXPECT_EQ(sched.pending_events(), 2u);
  sched.run();
  EXPECT_FALSE(second_fired);
  EXPECT_TRUE(third_fired);
  EXPECT_EQ(sched.events_executed(), 1u);
  EXPECT_EQ(sched.pending_events(), 0u);
}

}  // namespace
}  // namespace parcel::sim

#include <gtest/gtest.h>

#include <array>
#include <functional>
#include <stdexcept>
#include <thread>
#include <type_traits>
#include <utility>

#include "sim/scheduler.hpp"
#include "util/callback.hpp"
#include "util/rc.hpp"

namespace parcel::util {
namespace {

using Fn = Callback<void()>;
using IntFn = Callback<int(int)>;

static_assert(!std::is_copy_constructible_v<Fn>);
static_assert(!std::is_copy_assignable_v<Fn>);
static_assert(std::is_nothrow_move_constructible_v<Fn>);
static_assert(std::is_nothrow_move_assignable_v<Fn>);
static_assert(sizeof(Fn) == 64);

/// Captured state that counts how often the instance owning it is
/// destroyed; moved-from shells do not count.
struct Probe {
  int* destroyed;
  explicit Probe(int* d) : destroyed(d) {}
  Probe(Probe&& o) noexcept : destroyed(std::exchange(o.destroyed, nullptr)) {}
  Probe(const Probe&) = delete;
  Probe& operator=(Probe&&) = delete;
  Probe& operator=(const Probe&) = delete;
  ~Probe() {
    if (destroyed != nullptr) ++*destroyed;
  }
};

/// Padding that pushes a closure past the inline buffer.
using Ballast = std::array<char, 3 * Fn::kInlineBytes>;

TEST(Callback, DefaultNullptrAndEmptyStdFunctionAreEmpty) {
  EXPECT_FALSE(Fn{});
  EXPECT_FALSE(Fn{nullptr});
  EXPECT_FALSE(Fn{std::function<void()>{}});
  void (*null_fn)() = nullptr;
  EXPECT_FALSE(Fn{null_fn});
  EXPECT_TRUE(Fn{[] {}});
  EXPECT_TRUE(Fn{std::function<void()>([] {})});
}

TEST(Callback, MutableStatePersistsAcrossCalls) {
  IntFn add = [sum = 0](int x) mutable { return sum += x; };
  EXPECT_EQ(add(2), 2);
  EXPECT_EQ(add(3), 5);
  const IntFn& same = add;  // a const Callback still calls its closure
  EXPECT_EQ(same(1), 6);
}

TEST(Callback, InlineCaptureIsDestroyedExactlyOnce) {
  int destroyed = 0;
  int calls = 0;
  {
    Fn a = [p = Probe(&destroyed), &calls] { ++calls; };
    Fn b = std::move(a);
    EXPECT_FALSE(a);  // NOLINT(bugprone-use-after-move): the contract
    Fn c;
    c = std::move(b);
    c();
    EXPECT_EQ(destroyed, 0);
  }
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(destroyed, 1);
}

TEST(Callback, OversizedCaptureIsDestroyedExactlyOnce) {
  int destroyed = 0;
  int calls = 0;
  {
    Fn a = [p = Probe(&destroyed), ballast = Ballast{}, &calls] {
      calls += 1 + ballast[0];
    };
    Fn b = std::move(a);
    EXPECT_FALSE(a);  // NOLINT(bugprone-use-after-move): the contract
    b();
    EXPECT_EQ(destroyed, 0);
  }
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(destroyed, 1);
}

TEST(Callback, AssignmentAndNullptrReleaseThePreviousClosure) {
  int first = 0;
  int second = 0;
  Fn f = [p = Probe(&first)] {};
  f = Fn([p = Probe(&second), ballast = Ballast{}] { (void)ballast; });
  EXPECT_EQ(first, 1);
  EXPECT_EQ(second, 0);
  f = nullptr;
  EXPECT_FALSE(f);
  EXPECT_EQ(second, 1);
}

TEST(Callback, NestedCallbacksMoveDownTheChain) {
  // The shape of a burst's continuation: each stage captures the next.
  int destroyed = 0;
  int seen = 0;
  Callback<void(int)> sink = [p = Probe(&destroyed), &seen](int v) {
    seen = v;
  };
  IntFn middle = [next = std::move(sink)](int v) {
    next(v * 10);
    return v;
  };
  Fn outer = [next = std::move(middle), ballast = Ballast{}] {
    next(4 + ballast[0]);
  };
  Fn moved = std::move(outer);
  moved();
  EXPECT_EQ(seen, 40);
  EXPECT_EQ(destroyed, 0);
  moved = nullptr;
  EXPECT_EQ(destroyed, 1);
}

TEST(Callback, OversizedClosureMayDieOnAnotherThread) {
  // Blocks come from a per-thread cache; releasing one on a thread that
  // did not allocate it is legal and race-free.
  int destroyed = 0;
  int calls = 0;
  Fn f = [p = Probe(&destroyed), ballast = Ballast{}, &calls] {
    calls += 1 + ballast[0];
  };
  std::thread worker([g = std::move(f)]() mutable {
    g();
    g = nullptr;
  });
  worker.join();
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(destroyed, 1);
}

TEST(Callback, ScheduleAtRejectsEmptyCallablesAndStaysUsable) {
  sim::Scheduler sched;
  const auto t = TimePoint::at_seconds(1);
  EXPECT_THROW(sched.schedule_at(t, std::function<void()>{}),
               std::invalid_argument);
  EXPECT_THROW(sched.schedule_at(t, Fn{}), std::invalid_argument);
  EXPECT_EQ(sched.pending_events(), 0u);
  int destroyed = 0;
  bool fired = false;
  sched.schedule_at(t, [p = Probe(&destroyed), &fired] { fired = true; });
  sched.schedule_at(t, Fn([p = Probe(&destroyed), ballast = Ballast{}] {
                      (void)ballast;
                    }));
  sched.run();
  EXPECT_TRUE(fired);
  EXPECT_EQ(destroyed, 2);
}

TEST(Callback, CancelledEventsClosureIsDestroyedOnce) {
  int destroyed = 0;
  {
    sim::Scheduler sched;
    sim::EventHandle h = sched.schedule_at(
        TimePoint::at_seconds(1),
        [p = Probe(&destroyed), ballast = Ballast{}] {
          (void)ballast;
          FAIL();
        });
    sched.schedule_at(TimePoint::at_seconds(2),
                      [p = Probe(&destroyed)] {});  // left pending
    h.cancel();
    EXPECT_EQ(destroyed, 1);  // the cancelled closure died at once
    sched.run_until(TimePoint::at_seconds(1.5));
    EXPECT_EQ(destroyed, 1);  // popping its stale key destroys nothing
  }
  EXPECT_EQ(destroyed, 2);  // the pending event died with the scheduler
}

// ---- Rc ------------------------------------------------------------------
// Under ASan (no block cache, every box a real heap block) LeakSanitizer
// reports a box whose count never reached zero.

static_assert(sizeof(Rc<Probe>) == sizeof(void*));
static_assert(std::is_nothrow_move_constructible_v<Rc<Probe>>);

TEST(Rc, CopiesShareOneBoxAndTheLastReferenceDestroysIt) {
  int destroyed = 0;
  {
    Rc<Probe> a = Rc<Probe>::make(&destroyed);
    EXPECT_EQ(a.use_count(), 1u);
    {
      Rc<Probe> b = a;  // NOLINT(performance-unnecessary-copy-initialization)
      EXPECT_EQ(a.get(), b.get());
      EXPECT_EQ(a.use_count(), 2u);
      Rc<Probe> c;
      c = b;
      EXPECT_EQ(a.use_count(), 3u);
    }
    EXPECT_EQ(a.use_count(), 1u);
    EXPECT_EQ(destroyed, 0);
  }
  EXPECT_EQ(destroyed, 1);
}

TEST(Rc, MovesTransferTheReferenceAndAssignmentReleasesTheOldBox) {
  int first = 0;
  int second = 0;
  Rc<Probe> a = Rc<Probe>::make(&first);
  Probe* box = a.get();
  Rc<Probe> b = std::move(a);
  EXPECT_FALSE(a);  // NOLINT(bugprone-use-after-move): moved-from is empty
  EXPECT_EQ(a.use_count(), 0u);
  EXPECT_EQ(b.get(), box);
  EXPECT_EQ(b.use_count(), 1u);

  Rc<Probe> c = Rc<Probe>::make(&second);
  c = std::move(b);  // c's old box loses its only reference
  EXPECT_EQ(second, 1);
  EXPECT_EQ(c.get(), box);
  EXPECT_EQ(c.use_count(), 1u);
  c = Rc<Probe>();  // and so does the first
  EXPECT_EQ(first, 1);
  EXPECT_FALSE(c);
}

TEST(Rc, SelfAssignmentKeepsTheBox) {
  int destroyed = 0;
  Rc<Probe> a = Rc<Probe>::make(&destroyed);
  Rc<Probe>& alias = a;
  a = alias;
  EXPECT_EQ(a.use_count(), 1u);
  a = std::move(alias);
  EXPECT_TRUE(a);
  EXPECT_EQ(a.use_count(), 1u);
  EXPECT_EQ(destroyed, 0);
  a = Rc<Probe>();
  EXPECT_EQ(destroyed, 1);
}

TEST(Rc, AValueThatOwnsAnRcToAnotherBoxReleasesItOnce) {
  // A box that holds the last reference to another box (a fetch state's
  // timer handle holds the scheduler's token) frees both, inner last.
  struct Node {
    Rc<Node> next;
    Probe probe;
  };
  int destroyed = 0;
  {
    Rc<Node> inner = Rc<Node>::make(Rc<Node>(), Probe(&destroyed));
    Rc<Node> outer = Rc<Node>::make(std::move(inner), Probe(&destroyed));
    EXPECT_EQ(outer->next.use_count(), 1u);
  }
  EXPECT_EQ(destroyed, 2);
}

}  // namespace
}  // namespace parcel::util

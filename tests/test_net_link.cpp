#include <gtest/gtest.h>

#include "lte/radio_link.hpp"
#include "net/link.hpp"
#include "net/path.hpp"
#include "sim/scheduler.hpp"

namespace parcel::net {
namespace {

using util::BitRate;
using util::Duration;
using util::TimePoint;

TEST(Link, SerializationPlusPropagation) {
  sim::Scheduler sched;
  Link link(sched, "l", BitRate::mbps(8), Duration::millis(10));  // 1 MB/s
  double delivered = -1;
  link.transmit(100'000, BurstInfo{},
                [&](TimePoint t) { delivered = t.sec(); });
  sched.run();
  // 100 KB at 1 MB/s = 0.1 s + 10 ms propagation.
  EXPECT_NEAR(delivered, 0.11, 1e-9);
}

TEST(Link, FifoQueueingDelaysSecondBurst) {
  sim::Scheduler sched;
  Link link(sched, "l", BitRate::mbps(8), Duration::millis(0));
  double first = -1, second = -1;
  link.transmit(100'000, BurstInfo{}, [&](TimePoint t) { first = t.sec(); });
  link.transmit(100'000, BurstInfo{}, [&](TimePoint t) { second = t.sec(); });
  sched.run();
  EXPECT_NEAR(first, 0.1, 1e-9);
  EXPECT_NEAR(second, 0.2, 1e-9);  // waits for the first to serialize
}

TEST(Link, RateScaleSlowsTransmission) {
  sim::Scheduler sched;
  Link link(sched, "l", BitRate::mbps(8), Duration::millis(0));
  link.set_rate_scale(0.5);
  double delivered = -1;
  link.transmit(100'000, BurstInfo{}, [&](TimePoint t) { delivered = t.sec(); });
  sched.run();
  EXPECT_NEAR(delivered, 0.2, 1e-9);
  EXPECT_THROW(link.set_rate_scale(0.0), std::invalid_argument);
  EXPECT_THROW(link.set_rate_scale(1.5), std::invalid_argument);
}

TEST(Link, TapObservesDeliveries) {
  sim::Scheduler sched;
  Link link(sched, "l", BitRate::mbps(8), Duration::millis(5));
  int taps = 0;
  util::Bytes tapped_bytes = 0;
  link.set_tap([&](TimePoint, util::Bytes b, const BurstInfo& info) {
    ++taps;
    tapped_bytes += b;
    EXPECT_EQ(info.conn_id, 7u);
  });
  link.transmit(1000, BurstInfo{trace::PacketKind::kData, 7, 1},
                [](TimePoint) {});
  sched.run();
  EXPECT_EQ(taps, 1);
  EXPECT_EQ(tapped_bytes, 1000);
  EXPECT_EQ(link.bytes_carried(), 1000);
}

TEST(Link, RejectsNonPositiveRate) {
  sim::Scheduler sched;
  EXPECT_THROW(Link(sched, "bad", BitRate::bps(0), Duration::zero()),
               std::invalid_argument);
}

TEST(Path, RelaysAcrossHopsStoreAndForward) {
  sim::Scheduler sched;
  DuplexLink a(sched, "a", BitRate::mbps(8), BitRate::mbps(8),
               Duration::millis(10));
  DuplexLink b(sched, "b", BitRate::mbps(80), BitRate::mbps(80),
               Duration::millis(20));
  Path path({&a, &b});
  EXPECT_NEAR(path.propagation_delay().sec(), 0.030, 1e-12);
  EXPECT_NEAR(path.base_rtt().sec(), 0.060, 1e-12);
  EXPECT_NEAR(path.bottleneck_down().bits_per_sec(), 8e6, 1);

  double up = -1, down = -1;
  // Up: serialize on a (0.1s) + 10ms, then on b (0.01s) + 20ms.
  path.send_up(100'000, BurstInfo{}, [&](TimePoint t) { up = t.sec(); });
  sched.run();
  EXPECT_NEAR(up, 0.1 + 0.01 + 0.01 + 0.02, 1e-9);

  // Down traverses b first, then a.
  path.send_down(100'000, BurstInfo{}, [&](TimePoint t) { down = t.sec(); });
  sched.run();
  EXPECT_GT(down, up);
}

TEST(Path, EmptyPathRejected) {
  EXPECT_THROW(Path(std::vector<DuplexLink*>{}), std::invalid_argument);
  EXPECT_THROW(Path(std::vector<DuplexLink*>{nullptr}),
               std::invalid_argument);
}

// Delivery callback that counts its own copies.
struct CopyCounted {
  int* copies;
  int* calls;
  CopyCounted(int* copies_out, int* calls_out)
      : copies(copies_out), calls(calls_out) {}
  CopyCounted(const CopyCounted& other)
      : copies(other.copies), calls(other.calls) {
    ++*copies;
  }
  CopyCounted(CopyCounted&&) noexcept = default;
  void operator()(TimePoint) const { ++*calls; }
};

TEST(Path, DeliveryCallbackCrossesHopsWithoutCopies) {
  // Each hop wraps the callback in its relay closure and hands it to the
  // scheduler; the chain must move through every hop, radio included.
  sim::Scheduler sched;
  lte::RadioLink radio = lte::make_radio_link(sched, lte::RadioParams{});
  DuplexLink core(sched, "core", BitRate::mbps(1000), BitRate::mbps(1000),
                  Duration::millis(5));
  DuplexLink wan(sched, "wan", BitRate::mbps(200), BitRate::mbps(200),
                 Duration::millis(10));
  Path path({radio.link.get(), &core, &wan});
  int copies = 0;
  int calls = 0;
  path.send_up(1448, BurstInfo{}, CopyCounted(&copies, &calls));
  path.send_down(14480, BurstInfo{}, CopyCounted(&copies, &calls));
  sched.run();
  EXPECT_EQ(calls, 2);
  EXPECT_EQ(copies, 0);
}

}  // namespace
}  // namespace parcel::net

#include <gtest/gtest.h>

#include "lte/device.hpp"
#include "lte/energy.hpp"
#include "lte/radio_link.hpp"
#include "lte/rrc.hpp"
#include "trace/packet_trace.hpp"

namespace parcel::lte {
namespace {

using trace::Direction;
using trace::PacketKind;
using trace::PacketRecord;
using trace::PacketTrace;
using util::Duration;
using util::TimePoint;

TEST(RrcConfig, AlphaMatchesPaperWorkedExample) {
  RrcConfig cfg;
  // §6: alpha = 0.74 for the LTE parameters used in the paper.
  EXPECT_NEAR(cfg.alpha(), 0.74, 0.01);
}

TEST(RrcConfig, StateDecaySequence) {
  RrcConfig cfg;
  EXPECT_EQ(cfg.state_after_gap(Duration::millis(10)), RrcState::kCr);
  EXPECT_EQ(cfg.state_after_gap(cfg.cr_tail + Duration::millis(1)),
            RrcState::kShortDrx);
  EXPECT_EQ(cfg.state_after_gap(cfg.cr_tail + cfg.short_drx +
                                Duration::millis(1)),
            RrcState::kLongDrx);
  EXPECT_EQ(cfg.state_after_gap(cfg.total_tail() + Duration::millis(1)),
            RrcState::kIdle);
}

TEST(RrcConfig, PromotionDelaysByState) {
  RrcConfig cfg;
  EXPECT_EQ(cfg.promotion_delay_after_gap(Duration::millis(1)),
            Duration::zero());
  EXPECT_EQ(cfg.promotion_delay_after_gap(cfg.cr_tail + Duration::millis(1)),
            cfg.promo_from_short_drx);
  EXPECT_EQ(cfg.promotion_delay_after_gap(cfg.total_tail() +
                                          Duration::seconds(5)),
            cfg.promo_from_idle);
}

TEST(RrcMachine, StartsIdleAndTracksActivity) {
  RrcMachine machine{RrcConfig{}};
  EXPECT_EQ(machine.state_at(TimePoint::origin()), RrcState::kIdle);
  EXPECT_EQ(machine.promotion_delay(TimePoint::origin()),
            machine.config().promo_from_idle);
  machine.note_activity(TimePoint::at_seconds(1), TimePoint::at_seconds(1.5));
  EXPECT_EQ(machine.promotions_from_idle(), 1u);
  EXPECT_EQ(machine.state_at(TimePoint::at_seconds(1.2)), RrcState::kCr);
  EXPECT_EQ(machine.promotion_delay(TimePoint::at_seconds(1.4)),
            Duration::zero());
  // After the short-DRX boundary a resume pays the DRX promotion.
  TimePoint later = TimePoint::at_seconds(1.5) +
                    machine.config().cr_tail + Duration::millis(200);
  EXPECT_EQ(machine.state_at(later), RrcState::kShortDrx);
  machine.note_activity(later, later + Duration::millis(10));
  EXPECT_EQ(machine.promotions_from_drx(), 1u);
}

TEST(EnergyAnalyzer, SingleBurstPromotionPlusTail) {
  RrcConfig cfg;
  EnergyAnalyzer analyzer(cfg);
  PacketTrace trace;
  trace.record(PacketRecord{TimePoint::at_seconds(1.0), Direction::kUplink,
                            PacketKind::kSyn, 40, 1, 0});
  EnergyReport report = analyzer.analyze(trace, true);
  // Promotion energy before the burst.
  EXPECT_NEAR(report.time_promotion.sec(), cfg.promo_from_idle.sec(), 1e-9);
  EXPECT_EQ(report.promotions_from_idle, 1u);
  // Full decay tail afterwards.
  EXPECT_NEAR(report.time_cr.sec(), cfg.cr_tail.sec(), 1e-9);
  EXPECT_NEAR(report.time_short_drx.sec(), cfg.short_drx.sec(), 1e-9);
  EXPECT_NEAR(report.time_long_drx.sec(), cfg.long_drx.sec(), 1e-9);
  double expected =
      cfg.p_promotion.w() * cfg.promo_from_idle.sec() +
      cfg.p_cr.w() * cfg.cr_tail.sec() +
      cfg.p_short_drx.w() * cfg.short_drx.sec() +
      cfg.p_long_drx.w() * cfg.long_drx.sec();
  EXPECT_NEAR(report.total.j(), expected, 1e-6);
  EXPECT_EQ(report.cr_drx_transitions, 1u);
}

TEST(EnergyAnalyzer, CloseBurstsStayInContinuousReception) {
  RrcConfig cfg;
  EnergyAnalyzer analyzer(cfg);
  PacketTrace trace;
  for (double t : {1.0, 1.02, 1.04, 1.06}) {
    trace.record(PacketRecord{TimePoint::at_seconds(t), Direction::kDownlink,
                              PacketKind::kData, 1448, 1, 1});
  }
  EnergyReport report = analyzer.analyze(trace, false);
  // Bursts 20 ms apart, within the CR tail: exactly one CR stretch, no
  // transitions beyond the tailless end.
  EXPECT_EQ(report.promotions_from_drx, 0u);
  EXPECT_EQ(report.cr_drx_transitions, 0u);
  EXPECT_NEAR(report.time_cr.sec(), 0.06, 1e-9);
}

TEST(EnergyAnalyzer, GapCausesDemotionAndPromotion) {
  RrcConfig cfg;
  EnergyAnalyzer analyzer(cfg);
  PacketTrace trace;
  trace.record(PacketRecord{TimePoint::at_seconds(1.0), Direction::kDownlink,
                            PacketKind::kData, 1448, 1, 1});
  // Gap into Short DRX (cr_tail 60 ms + 500 ms < 1.06 s boundary).
  trace.record(PacketRecord{TimePoint::at_seconds(1.5), Direction::kDownlink,
                            PacketKind::kData, 1448, 1, 2});
  EnergyReport report = analyzer.analyze(trace, false);
  EXPECT_EQ(report.promotions_from_drx, 1u);
  EXPECT_EQ(report.cr_drx_transitions, 2u);  // CR->DRX and DRX->CR
  EXPECT_GT(report.time_short_drx.sec(), 0.0);
}

TEST(EnergyAnalyzer, LongIdleGapPaysIdlePromotion) {
  RrcConfig cfg;
  EnergyAnalyzer analyzer(cfg);
  PacketTrace trace;
  trace.record(PacketRecord{TimePoint::at_seconds(1.0), Direction::kDownlink,
                            PacketKind::kData, 100, 1, 1});
  trace.record(PacketRecord{TimePoint::at_seconds(60.0), Direction::kDownlink,
                            PacketKind::kData, 100, 1, 2});
  EnergyReport report = analyzer.analyze(trace, false);
  EXPECT_EQ(report.promotions_from_idle, 2u);  // initial + after the gap
  EXPECT_GT(report.time_idle.sec(), 40.0);
}

TEST(EnergyAnalyzer, EnergyBetweenSlicesTimeline) {
  RrcConfig cfg;
  EnergyAnalyzer analyzer(cfg);
  PacketTrace trace;
  trace.record(PacketRecord{TimePoint::at_seconds(1.0), Direction::kDownlink,
                            PacketKind::kData, 100, 1, 1});
  EnergyReport report = analyzer.analyze(trace, true);
  util::Energy all = analyzer.energy_between(report, TimePoint::origin(),
                                             TimePoint::at_seconds(1000));
  EXPECT_NEAR(all.j(), report.total.j(), 1e-9);
  util::Energy none = analyzer.energy_between(
      report, TimePoint::at_seconds(500), TimePoint::at_seconds(600));
  EXPECT_DOUBLE_EQ(none.j(), 0.0);
}

TEST(EnergyAnalyzer, EmptyTraceZeroEnergy) {
  EnergyAnalyzer analyzer{RrcConfig{}};
  EnergyReport report = analyzer.analyze(PacketTrace{}, true);
  EXPECT_DOUBLE_EQ(report.total.j(), 0.0);
  EXPECT_TRUE(report.timeline.empty());
}

TEST(FadeProcess, DeterministicAndBounded) {
  FadeProcess::Params params;
  FadeProcess a(util::Rng(5), params);
  FadeProcess b(util::Rng(5), params);
  for (double t = 0; t < 100; t += 1.7) {
    double s = a.scale_at(TimePoint::at_seconds(t));
    EXPECT_DOUBLE_EQ(s, b.scale_at(TimePoint::at_seconds(t)));
    EXPECT_GE(s, params.floor);
    EXPECT_LE(s, 1.0);
  }
}

TEST(RadioLink, PromotionDelaysFirstTransfer) {
  sim::Scheduler sched;
  RadioParams params;
  RadioLink radio = make_radio_link(sched, params);
  double delivered = -1;
  radio.link->down().transmit(1000, net::BurstInfo{},
                              [&](TimePoint t) { delivered = t.sec(); });
  sched.run();
  // Promotion from IDLE (260 ms) + serialization + propagation.
  EXPECT_GT(delivered, params.rrc.promo_from_idle.sec());
  EXPECT_EQ(radio.rrc->promotions_from_idle(), 1u);

  // A second transfer right away needs no promotion.
  double second = -1;
  radio.link->down().transmit(1000, net::BurstInfo{},
                              [&](TimePoint t) { second = t.sec(); });
  sched.run();
  EXPECT_LT(second - delivered, 0.100);
}

TEST(RadioLink, SharedRrcBetweenDirections) {
  sim::Scheduler sched;
  RadioParams params;
  RadioLink radio = make_radio_link(sched, params);
  double up = -1, down = -1;
  radio.link->up().transmit(100, net::BurstInfo{},
                            [&](TimePoint t) { up = t.sec(); });
  sched.run();
  radio.link->down().transmit(100, net::BurstInfo{},
                              [&](TimePoint t) { down = t.sec(); });
  sched.run();
  // The uplink promoted the shared radio; downlink rides the same tail.
  EXPECT_EQ(radio.rrc->promotions_from_idle(), 1u);
  EXPECT_LT(down - up, 0.100);
}

TEST(DeviceEnergy, CombinesRadioAndCpu) {
  DeviceProfile profile = DeviceProfile::galaxy_s3();
  EnergyReport radio;
  radio.total = util::Energy::joules(5.0);
  DeviceEnergyBreakdown out = device_energy(
      profile, radio, Duration::seconds(2.0), Duration::seconds(10.0));
  EXPECT_DOUBLE_EQ(out.radio.j(), 5.0);
  double expected_cpu =
      profile.cpu_active.w() * 2.0 + profile.cpu_idle.w() * 8.0;
  EXPECT_NEAR(out.cpu.j(), expected_cpu, 1e-9);
  EXPECT_NEAR(out.total().j(), 5.0 + expected_cpu, 1e-9);
}

TEST(DeviceProfile, ProxyIsMuchFasterThanHandset) {
  DeviceProfile handset = DeviceProfile::galaxy_s3();
  DeviceProfile proxy = DeviceProfile::proxy_server();
  EXPECT_GT(proxy.parse_bytes_per_sec, 10 * handset.parse_bytes_per_sec);
  EXPECT_GT(proxy.js_units_per_sec, 10 * handset.js_units_per_sec);
}

}  // namespace
}  // namespace parcel::lte

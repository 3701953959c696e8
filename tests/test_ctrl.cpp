// ctrl:: closed-loop adaptive bundling (ISSUE 10): estimator arithmetic,
// controller law, fade profiles, strict bench parsers, fleet arrival
// processes, page mixes, and the end-to-end determinism contracts (jobs
// fan-out bitwise identity, pinned-clamp byte pin to PARCEL(512K)).
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "core/experiment.hpp"
#include "core/parallel_runner.hpp"
#include "ctrl/bundle_controller.hpp"
#include "fleet/fleet_runner.hpp"
#include "lte/radio_link.hpp"
#include "replay/replay_store.hpp"
#include "web/generator.hpp"

namespace parcel {
namespace {

// ---------------------------------------------------------------- isqrt

TEST(CtrlIsqrt, ExactFloorOverSmallRange) {
  for (std::uint64_t v = 0; v <= 5000; ++v) {
    const std::uint64_t x = ctrl::isqrt_u64(v);
    EXPECT_LE(x * x, v) << v;
    EXPECT_GT((x + 1) * (x + 1), v) << v;
  }
}

TEST(CtrlIsqrt, PerfectSquaresAndNeighbors) {
  for (std::uint64_t n : {1ULL, 2ULL, 10ULL, 1000ULL, 65536ULL,
                          4294967295ULL}) {
    EXPECT_EQ(ctrl::isqrt_u64(n * n), n);
    EXPECT_EQ(ctrl::isqrt_u64(n * n - 1), n - 1);
    EXPECT_EQ(ctrl::isqrt_u64(n * n + 1), n);
  }
}

TEST(CtrlIsqrt, EdgeValues) {
  EXPECT_EQ(ctrl::isqrt_u64(0), 0u);
  EXPECT_EQ(ctrl::isqrt_u64(1), 1u);
  EXPECT_EQ(ctrl::isqrt_u64(1ULL << 62), 1ULL << 31);
  // floor(sqrt(2^64 - 1)) = 2^32 - 1: the (x+1)^2 fix-up must not
  // overflow past it.
  EXPECT_EQ(ctrl::isqrt_u64(~0ULL), 4294967295u);
}

// ------------------------------------------------------- LinkEstimator

trace::PacketRecord down_data(double t_sec, util::Bytes bytes) {
  trace::PacketRecord r;
  r.t = util::TimePoint::at_seconds(t_sec);
  r.dir = trace::Direction::kDownlink;
  r.kind = trace::PacketKind::kData;
  r.bytes = bytes;
  return r;
}

trace::PacketRecord up_data(double t_sec, util::Bytes bytes = 300) {
  trace::PacketRecord r;
  r.t = util::TimePoint::at_seconds(t_sec);
  r.dir = trace::Direction::kUplink;
  r.kind = trace::PacketKind::kData;
  r.bytes = bytes;
  return r;
}

TEST(CtrlEstimator, SeedsBeforeAnySample) {
  ctrl::LinkEstimator est{ctrl::EstimatorConfig{}};
  EXPECT_EQ(est.goodput_bps(), 750'000);
  EXPECT_EQ(est.rtt_us(), 80'000);
  EXPECT_EQ(est.goodput_samples(), 0u);
  EXPECT_EQ(est.rtt_samples(), 0u);
  EXPECT_EQ(est.downlink_bytes(), 0);
}

TEST(CtrlEstimator, ConfigValidation) {
  ctrl::EstimatorConfig bad;
  bad.goodput_gamma_shift = 32;
  EXPECT_THROW(ctrl::LinkEstimator{bad}, std::invalid_argument);
  bad = {};
  bad.initial_goodput_bps = 0;
  EXPECT_THROW(ctrl::LinkEstimator{bad}, std::invalid_argument);
  bad = {};
  bad.max_goodput_bps = bad.min_goodput_bps - 1;
  EXPECT_THROW(ctrl::LinkEstimator{bad}, std::invalid_argument);
  bad = {};
  bad.min_sample_bytes = 0;
  EXPECT_THROW(ctrl::LinkEstimator{bad}, std::invalid_argument);
  bad = {};
  bad.min_plausible_bps = 0;
  EXPECT_THROW(ctrl::LinkEstimator{bad}, std::invalid_argument);
}

TEST(CtrlEstimator, BackToBackBurstFoldsExactly) {
  ctrl::LinkEstimator est{ctrl::EstimatorConfig{}};
  est.on_record(down_data(1.000, 50'000));
  // 20 ms gap <= the 50 ms CR tail: pure serialization. Sample is
  // 100000 B / 20 ms = 5'000'000 B/s; one 1/8-gain EWMA step from the
  // 750'000 seed lands on 750000 + (4250000 >> 3) = 1'281'250.
  est.on_record(down_data(1.020, 100'000));
  EXPECT_EQ(est.goodput_samples(), 1u);
  EXPECT_EQ(est.gated_samples(), 0u);
  EXPECT_EQ(est.goodput_bps(), 1'281'250);
  EXPECT_EQ(est.downlink_bytes(), 150'000);
}

TEST(CtrlEstimator, LargeBurstFoldsAcrossDrxGap) {
  ctrl::LinkEstimator est{ctrl::EstimatorConfig{}};
  est.on_record(down_data(1.0, 10'000));
  // 500 ms gap is far beyond the CR tail, but 64 KiB at the plausibility
  // floor (40 kB/s) takes 1.6 s > 0.5 s, so the spacing is credited to
  // airtime: sample = 65536 B / 0.5 s = 131'072 B/s, and the EWMA steps
  // 750000 + ((131072 - 750000) >> 3) = 750000 - 77366 = 672'634.
  est.on_record(down_data(1.5, 65'536));
  EXPECT_EQ(est.goodput_samples(), 1u);
  EXPECT_EQ(est.gated_samples(), 0u);
  EXPECT_EQ(est.goodput_bps(), 672'634);
}

TEST(CtrlEstimator, SmallBurstAcrossGapIsGated) {
  ctrl::LinkEstimator est{ctrl::EstimatorConfig{}};
  est.on_record(down_data(1.0, 10'000));
  // 4 KiB over a 500 ms gap: the spacing is DRX stall / origin idle
  // time, not serialization. Folding it would read ~8 kB/s and crash
  // the estimate.
  est.on_record(down_data(1.5, 4'096));
  EXPECT_EQ(est.goodput_samples(), 0u);
  EXPECT_EQ(est.gated_samples(), 1u);
  EXPECT_EQ(est.goodput_bps(), 750'000);
}

TEST(CtrlEstimator, SameInstantAndOverCapSamplesAreGated) {
  ctrl::LinkEstimator est{ctrl::EstimatorConfig{}};
  est.on_record(down_data(1.0, 1'000));
  est.on_record(down_data(1.0, 1'000));  // dt == 0: unusable
  EXPECT_EQ(est.goodput_samples(), 0u);
  EXPECT_EQ(est.gated_samples(), 1u);
  // 100 KB in 1 us reads 1e11 B/s — beyond max_goodput_bps, gated by
  // the sanity band even though the gap passes the CR gate.
  est.on_record(down_data(1.000001, 100'000));
  EXPECT_EQ(est.goodput_samples(), 0u);
  EXPECT_EQ(est.gated_samples(), 2u);
  EXPECT_EQ(est.goodput_bps(), 750'000);
}

TEST(CtrlEstimator, RttDeskewsIdlePromotion) {
  ctrl::LinkEstimator est{ctrl::EstimatorConfig{}};
  // First uplink ever: the radio pays the full idle promotion (260 ms).
  // Raw request->response spacing is 400 ms; the de-skewed sample is
  // 140 ms, and one 1/8-gain step from the 80 ms seed is 87'500 us.
  est.on_record(up_data(1.0));
  est.on_record(down_data(1.4, 10'000));
  EXPECT_EQ(est.rtt_samples(), 1u);
  EXPECT_EQ(est.rtt_us(), 87'500);
}

TEST(CtrlEstimator, RttDeskewsShortDrxPromotionAndPairsFirstUplink) {
  ctrl::LinkEstimator est{ctrl::EstimatorConfig{}};
  est.on_record(down_data(1.0, 5'000));
  // 500 ms since the last activity: short-DRX, so the uplink paid the
  // 40 ms resume. A second uplink before the response must not re-arm
  // the pairing. Sample = (1.6 - 1.5) s - 40 ms = 60 ms; EWMA steps
  // 80000 + ((60000 - 80000) >> 3) = 77'500.
  est.on_record(up_data(1.5));
  est.on_record(up_data(1.55));
  est.on_record(down_data(1.6, 20'000));
  EXPECT_EQ(est.rtt_samples(), 1u);
  EXPECT_EQ(est.rtt_us(), 77'500);
}

TEST(CtrlEstimator, DeterministicReplayOfSameSequence) {
  std::vector<trace::PacketRecord> seq;
  for (int i = 0; i < 40; ++i) {
    seq.push_back(up_data(0.25 * i + 0.01));
    seq.push_back(down_data(0.25 * i + 0.1, 8'000 + 977 * i));
    seq.push_back(down_data(0.25 * i + 0.13, 50'000 + 131 * i));
  }
  ctrl::LinkEstimator a{ctrl::EstimatorConfig{}};
  ctrl::LinkEstimator b{ctrl::EstimatorConfig{}};
  for (const auto& r : seq) a.on_record(r);
  for (const auto& r : seq) b.on_record(r);
  EXPECT_EQ(a.goodput_bps(), b.goodput_bps());
  EXPECT_EQ(a.rtt_us(), b.rtt_us());
  EXPECT_EQ(a.goodput_samples(), b.goodput_samples());
  EXPECT_EQ(a.gated_samples(), b.gated_samples());
  EXPECT_GT(a.goodput_samples(), 0u);
  EXPECT_GT(a.rtt_samples(), 0u);
}

// ----------------------------------------------------- BundleController

TEST(CtrlController, TargetIsAlphaRootOfGoodputTimesRemaining) {
  ctrl::ControllerConfig cfg;
  cfg.alpha_milli = 1000;
  cfg.page_bytes_hint = 750'000;
  ctrl::BundleController c(cfg, util::kib(512));
  // No bytes observed yet: B-hat is the full hint, s-hat the 750'000
  // seed, so target = isqrt(750000 * 750000) = 750'000 exactly.
  EXPECT_EQ(c.target(), 750'000);
}

TEST(CtrlController, TargetTapersToRemainingBytesWithFloor) {
  ctrl::ControllerConfig cfg;
  cfg.alpha_milli = 1000;
  cfg.page_bytes_hint = 800'000;
  ctrl::BundleController c(cfg, util::kib(512));
  // 1 MB has crossed the radio — more than the hint, so B-hat bottoms
  // out at hint/8 = 100'000 rather than going negative.
  auto retune = c.on_record(down_data(1.0, 1'000'000));
  const auto expect = static_cast<util::Bytes>(
      ctrl::isqrt_u64(750'000ULL * 100'000ULL));
  EXPECT_EQ(c.target(), expect);
  ASSERT_TRUE(retune.has_value());
  EXPECT_EQ(*retune, expect);
  EXPECT_EQ(c.threshold(), expect);
  EXPECT_EQ(c.retunes(), 1u);
}

TEST(CtrlController, TargetClampsToConfiguredBounds) {
  ctrl::ControllerConfig lo;
  lo.alpha_milli = 1;
  lo.page_bytes_hint = util::kib(64);
  ctrl::BundleController clo(lo, util::kib(512));
  EXPECT_EQ(clo.target(), lo.min_target);

  ctrl::ControllerConfig hi;
  hi.alpha_milli = 1'000'000;
  ctrl::BundleController chi(hi, util::kib(512));
  EXPECT_EQ(chi.target(), hi.max_target);
}

TEST(CtrlController, HysteresisSuppressesSmallMoves) {
  ctrl::ControllerConfig cfg;
  cfg.alpha_milli = 1000;
  cfg.page_bytes_hint = 750'000;
  // Scheduler already sits on the computed target: an uplink record
  // (which moves no estimator state the target reads) must not retune.
  ctrl::BundleController steady(cfg, 750'000);
  EXPECT_FALSE(steady.on_record(up_data(1.0)).has_value());
  EXPECT_EQ(steady.retunes(), 0u);
  EXPECT_EQ(steady.threshold(), 750'000);

  // Threshold parked at 2x the target: delta is 50% of the threshold,
  // far outside the 20% band, so the same record does retune.
  ctrl::BundleController off(cfg, 1'500'000);
  auto retune = off.on_record(up_data(1.0));
  ASSERT_TRUE(retune.has_value());
  EXPECT_EQ(*retune, 750'000);
  EXPECT_EQ(off.retunes(), 1u);
}

TEST(CtrlController, ConfigValidationRejectsNonsense) {
  ctrl::ControllerConfig cfg;
  cfg.alpha_milli = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = {};
  cfg.page_bytes_hint = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = {};
  cfg.min_target = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = {};
  cfg.max_target = cfg.min_target - 1;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = {};
  cfg.hysteresis_pct = -1;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = {};
  cfg.hysteresis_pct = 1001;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = {};
  EXPECT_NO_THROW(cfg.validate());
  EXPECT_THROW(ctrl::BundleController(cfg, 0), std::invalid_argument);
}

TEST(CtrlController, LatencyTunedPreset) {
  const lte::RrcConfig rrc;
  const ctrl::ControllerConfig cfg = ctrl::ControllerConfig::latency_tuned(rrc);
  // alpha' = isqrt(40 ms in us) * 5/8 = 200 * 5/8 = 125 milli-units.
  EXPECT_EQ(cfg.alpha_milli, 125);
  EXPECT_EQ(cfg.estimator.goodput_gamma_shift, 2u);
  EXPECT_EQ(cfg.hysteresis_pct, 10);
  EXPECT_EQ(cfg.estimator.rrc.cr_tail.sec(), rrc.cr_tail.sec());
  EXPECT_NO_THROW(cfg.validate());
}

// ------------------------------------------------------ fade profiles

TEST(FadeSpecProfile, PulseFadesLastDutyOfEachPeriod) {
  lte::FadeSpec spec;
  spec.kind = lte::FadeSpec::Kind::kPulse;
  spec.high = 1.0;
  spec.low = 0.25;
  spec.period = util::Duration::seconds(4);
  spec.duty = 0.5;
  spec.horizon = util::Duration::seconds(8);
  const std::vector<double> steps = spec.build_steps();
  ASSERT_EQ(steps.size(), 17u);  // ceil(8 / 0.5) + 1
  EXPECT_EQ(steps[0], 1.0);      // t = 0: period opens at full strength
  EXPECT_EQ(steps[3], 1.0);      // t = 1.5
  EXPECT_EQ(steps[4], 0.25);     // t = 2: the faded half begins
  EXPECT_EQ(steps[7], 0.25);     // t = 3.5
  EXPECT_EQ(steps[8], 1.0);      // t = 4: next period reopens high
}

TEST(FadeSpecProfile, StepDropsAtTheConfiguredInstant) {
  lte::FadeSpec spec;
  spec.kind = lte::FadeSpec::Kind::kStep;
  spec.high = 0.9;
  spec.low = 0.3;
  spec.at = util::Duration::seconds(5);
  spec.horizon = util::Duration::seconds(10);
  const std::vector<double> steps = spec.build_steps();
  ASSERT_EQ(steps.size(), 21u);
  EXPECT_EQ(steps[9], 0.9);   // t = 4.5
  EXPECT_EQ(steps[10], 0.3);  // t = 5.0
  EXPECT_EQ(steps.back(), 0.3);
}

TEST(FadeSpecProfile, RampIsMonotoneHighToLow) {
  lte::FadeSpec spec;
  spec.kind = lte::FadeSpec::Kind::kRamp;
  spec.high = 1.0;
  spec.low = 0.2;
  spec.horizon = util::Duration::seconds(10);
  const std::vector<double> steps = spec.build_steps();
  ASSERT_FALSE(steps.empty());
  EXPECT_DOUBLE_EQ(steps.front(), 1.0);
  EXPECT_DOUBLE_EQ(steps.back(), 0.2);
  for (std::size_t i = 1; i < steps.size(); ++i) {
    EXPECT_LE(steps[i], steps[i - 1]) << i;
  }
}

TEST(FadeSpecProfile, ValidateRejectsNonsense) {
  auto reject = [](auto mutate) {
    lte::FadeSpec spec;
    mutate(spec);
    EXPECT_THROW(spec.validate(), std::invalid_argument);
  };
  reject([](lte::FadeSpec& s) { s.low = 0.0; });
  reject([](lte::FadeSpec& s) { s.high = 1.2; });
  reject([](lte::FadeSpec& s) { s.low = 0.8; s.high = 0.5; });
  reject([](lte::FadeSpec& s) { s.step = util::Duration::zero(); });
  reject([](lte::FadeSpec& s) { s.horizon = util::Duration::zero(); });
  reject([](lte::FadeSpec& s) { s.period = util::Duration::zero(); });
  reject([](lte::FadeSpec& s) { s.duty = -0.1; });
  reject([](lte::FadeSpec& s) { s.duty = 1.5; });
  reject([](lte::FadeSpec& s) {
    s.kind = lte::FadeSpec::Kind::kStep;
    s.at = util::Duration::seconds(-1);
  });
  EXPECT_NO_THROW(lte::FadeSpec{}.validate());
}

TEST(FadeSpecProfile, FromStepsValidatesTrajectory) {
  lte::FadeProcess::Params params;
  EXPECT_THROW(lte::FadeProcess::from_steps(params, {}),
               std::invalid_argument);
  EXPECT_THROW(lte::FadeProcess::from_steps(params, {0.5, 0.0}),
               std::invalid_argument);
  EXPECT_THROW(lte::FadeProcess::from_steps(params, {0.5, 1.5}),
               std::invalid_argument);
  const lte::FadeProcess p =
      lte::FadeProcess::from_steps(params, {1.0, 0.5});
  EXPECT_EQ(p.scale_at(util::TimePoint::at_seconds(0.0)), 1.0);
  EXPECT_EQ(p.scale_at(util::TimePoint::at_seconds(10.0)), 0.5);
}

// ------------------------------------------------- strict CLI parsers

TEST(BenchCli, ParseFadeAcceptsOffAr1AndSpecs) {
  bench::FadeOption off = bench::parse_fade("--fade", "off");
  EXPECT_FALSE(off.ar1);
  EXPECT_FALSE(off.profile.has_value());

  bench::FadeOption ar1 = bench::parse_fade("--fade", "ar1");
  EXPECT_TRUE(ar1.ar1);
  EXPECT_FALSE(ar1.profile.has_value());

  bench::FadeOption bare = bench::parse_fade("--fade", "ramp");
  ASSERT_TRUE(bare.profile.has_value());
  EXPECT_EQ(bare.profile->kind, lte::FadeSpec::Kind::kRamp);

  bench::FadeOption pulse = bench::parse_fade(
      "--fade", "pulse:period=4,duty=0.5,low=0.25,high=1,horizon=120");
  ASSERT_TRUE(pulse.profile.has_value());
  EXPECT_EQ(pulse.profile->kind, lte::FadeSpec::Kind::kPulse);
  EXPECT_DOUBLE_EQ(pulse.profile->period.sec(), 4.0);
  EXPECT_DOUBLE_EQ(pulse.profile->duty, 0.5);
  EXPECT_DOUBLE_EQ(pulse.profile->low, 0.25);
  EXPECT_DOUBLE_EQ(pulse.profile->high, 1.0);
  EXPECT_DOUBLE_EQ(pulse.profile->horizon.sec(), 120.0);

  bench::FadeOption step = bench::parse_fade(
      "--fade", "step:at=5,low=0.3,step=0.25");
  ASSERT_TRUE(step.profile.has_value());
  EXPECT_EQ(step.profile->kind, lte::FadeSpec::Kind::kStep);
  EXPECT_DOUBLE_EQ(step.profile->at.sec(), 5.0);
  EXPECT_DOUBLE_EQ(step.profile->step.sec(), 0.25);
}

TEST(BenchCli, ParseFadeRejectsMalformedSpecs) {
  for (const char* bad :
       {"", "none", "sine", "pulse:bogus=1", "pulse:duty", "pulse:duty=",
        "pulse:=1", "pulse:duty=x", "pulse:duty=-0.5", "pulse:high=0",
        "pulse:low=2", "step:at=-3", "ramp:low=0.9,high=0.1"}) {
    EXPECT_THROW(bench::parse_fade("--fade", bad), std::invalid_argument)
        << bad;
  }
}

TEST(BenchCli, ParsePageMixRoundTripsToStringNames) {
  for (web::PageMix mix :
       {web::PageMix::kAlexa34, web::PageMix::kAdHeavy, web::PageMix::kSpa,
        web::PageMix::kLargeObject}) {
    EXPECT_EQ(bench::parse_page_mix(
                  "--mix", std::string(web::to_string(mix)).c_str()),
              mix);
  }
  for (const char* bad : {"", "alexa", "Alexa34", "adheavy", "huge"}) {
    EXPECT_THROW(bench::parse_page_mix("--mix", bad), std::invalid_argument)
        << bad;
  }
}

TEST(BenchCli, ParseOptionsRejectsUnknownFlags) {
  std::string prog = "bench", pages = "--pages", page = "--page",
              ctrl = "--ctrl", five = "5", off = "off";
  char* known[] = {prog.data(), pages.data(), five.data()};
  EXPECT_EQ(bench::parse_options(3, known).pages, 5);
  // A misspelt or retired flag is a usage error, not a silent default run.
  char* typo[] = {prog.data(), page.data(), five.data()};
  EXPECT_EXIT(bench::parse_options(3, typo), ::testing::ExitedWithCode(2),
              "error: unknown flag --page");
  char* retired[] = {prog.data(), ctrl.data(), off.data()};
  EXPECT_EXIT(bench::parse_options(3, retired), ::testing::ExitedWithCode(2),
              "error: unknown flag --ctrl");
}

// ------------------------------------------------- arrival processes

TEST(FleetArrivals, ToStringNames) {
  EXPECT_EQ(fleet::to_string(fleet::ArrivalProcess::kPoisson), "poisson");
  EXPECT_EQ(fleet::to_string(fleet::ArrivalProcess::kFlashCrowd),
            "flash-crowd");
  EXPECT_EQ(fleet::to_string(fleet::ArrivalProcess::kDiurnal), "diurnal");
}

TEST(FleetArrivals, ValidateRejectsBadShapes) {
  auto reject = [](auto mutate) {
    fleet::FleetConfig cfg;
    mutate(cfg);
    EXPECT_THROW(cfg.validate(), std::invalid_argument);
  };
  reject([](fleet::FleetConfig& c) { c.flash_boost = -1.0; });
  reject([](fleet::FleetConfig& c) {
    c.flash_at = util::Duration::seconds(-1);
  });
  reject([](fleet::FleetConfig& c) {
    c.flash_window = util::Duration::seconds(-1);
  });
  reject([](fleet::FleetConfig& c) {
    c.diurnal_period = util::Duration::zero();
  });
  reject([](fleet::FleetConfig& c) { c.diurnal_amplitude = 1.0; });
  reject([](fleet::FleetConfig& c) { c.diurnal_amplitude = -0.2; });
  fleet::FleetConfig ok;
  ok.arrivals = fleet::ArrivalProcess::kDiurnal;
  EXPECT_NO_THROW(ok.validate());
}

TEST(FleetArrivals, ColumnsAreMonotoneDeterministicAndSeedInvariant) {
  fleet::FleetConfig cfg;
  cfg.clients = 64;
  const fleet::ClientColumns poisson =
      fleet::derive_client_columns(cfg, /*corpus_pages=*/4);

  cfg.arrivals = fleet::ArrivalProcess::kFlashCrowd;
  const fleet::ClientColumns flash =
      fleet::derive_client_columns(cfg, 4);
  cfg.arrivals = fleet::ArrivalProcess::kDiurnal;
  const fleet::ClientColumns diurnal =
      fleet::derive_client_columns(cfg, 4);
  const fleet::ClientColumns diurnal2 =
      fleet::derive_client_columns(cfg, 4);

  ASSERT_EQ(poisson.size(), 64u);
  ASSERT_EQ(flash.size(), 64u);
  ASSERT_EQ(diurnal.size(), 64u);
  // Rate modulation keeps the renewal construction: arrivals stay
  // non-decreasing (the epoch planner's split test depends on it), and
  // the same config derives the same columns.
  for (std::size_t k = 1; k < 64; ++k) {
    EXPECT_GE(poisson.arrival_sec[k], poisson.arrival_sec[k - 1]) << k;
    EXPECT_GE(flash.arrival_sec[k], flash.arrival_sec[k - 1]) << k;
    EXPECT_GE(diurnal.arrival_sec[k], diurnal.arrival_sec[k - 1]) << k;
  }
  EXPECT_EQ(diurnal.arrival_sec, diurnal2.arrival_sec);
  // The process shifts arrival *times* only; per-session seeds and page
  // assignment derive from the client index and stay byte-identical.
  EXPECT_EQ(poisson.seed, flash.seed);
  EXPECT_EQ(poisson.fade_seed, diurnal.fade_seed);
  EXPECT_EQ(poisson.page_index, flash.page_index);
  EXPECT_NE(poisson.arrival_sec, flash.arrival_sec);
  EXPECT_NE(poisson.arrival_sec, diurnal.arrival_sec);
}

TEST(FleetArrivals, FlashCrowdCompressesTheWindow) {
  fleet::FleetConfig cfg;
  cfg.clients = 400;
  cfg.mean_interarrival = util::Duration::millis(100);
  cfg.arrivals = fleet::ArrivalProcess::kFlashCrowd;
  cfg.flash_boost = 19.0;
  cfg.flash_at = util::Duration::seconds(2);
  cfg.flash_window = util::Duration::seconds(1);
  const fleet::ClientColumns cols = fleet::derive_client_columns(cfg, 4);
  std::size_t inside = 0;
  for (double t : cols.arrival_sec) {
    if (t >= 2.0 && t < 3.0) ++inside;
  }
  // At 20x rate the one-second window should absorb far more than the
  // ~10 arrivals a flat process would put there.
  EXPECT_GT(inside, 40u);
}

// ------------------------------------------------------- page mixes

TEST(WebPageMix, AlexaMixIsExactlyTheCorpus) {
  web::PageGenerator a(2014);
  web::PageGenerator b(2014);
  const std::vector<web::PageSpec> corpus = a.corpus_specs(6);
  const std::vector<web::PageSpec> mix =
      b.mix_specs(web::PageMix::kAlexa34, 6);
  ASSERT_EQ(mix.size(), corpus.size());
  for (std::size_t i = 0; i < mix.size(); ++i) {
    EXPECT_EQ(mix[i].site, corpus[i].site);
    EXPECT_EQ(mix[i].object_count, corpus[i].object_count);
    EXPECT_EQ(mix[i].total_bytes, corpus[i].total_bytes);
    EXPECT_EQ(mix[i].seed, corpus[i].seed);
  }
}

TEST(WebPageMix, MixesAreDeterministicAndDistinctInCharacter) {
  for (web::PageMix mix : {web::PageMix::kAdHeavy, web::PageMix::kSpa,
                           web::PageMix::kLargeObject}) {
    web::PageGenerator a(7);
    web::PageGenerator b(7);
    const std::vector<web::PageSpec> s1 = a.mix_specs(mix, 5);
    const std::vector<web::PageSpec> s2 = b.mix_specs(mix, 5);
    ASSERT_EQ(s1.size(), 5u) << web::to_string(mix);
    for (std::size_t i = 0; i < s1.size(); ++i) {
      EXPECT_EQ(s1[i].site, s2[i].site);
      EXPECT_EQ(s1[i].object_count, s2[i].object_count);
      EXPECT_EQ(s1[i].total_bytes, s2[i].total_bytes);
      EXPECT_GT(s1[i].object_count, 0);
      EXPECT_GT(s1[i].total_bytes, 0);
    }
  }
  // The families actually differ in the dimension they stress: ad-heavy
  // fragments into many objects, large-object concentrates bytes into
  // few, SPA leans on deep synchronous JS chains.
  web::PageGenerator g(7);
  const auto ads = g.mix_specs(web::PageMix::kAdHeavy, 5);
  const auto spa = g.mix_specs(web::PageMix::kSpa, 5);
  const auto large = g.mix_specs(web::PageMix::kLargeObject, 5);
  EXPECT_GT(ads[0].object_count, large[0].object_count);
  EXPECT_GT(large[0].total_bytes / large[0].object_count,
            ads[0].total_bytes / ads[0].object_count);
  EXPECT_GT(spa[0].max_js_chain_depth, ads[0].max_js_chain_depth);
}

// --------------------------------------------- adaptive end-to-end

const web::WebPage& ctrl_page() {
  static web::WebPage* page = [] {
    web::PageSpec spec;
    spec.site = "ctrl.example.com";
    spec.object_count = 48;
    spec.total_bytes = util::kib(600);
    spec.seed = 23;
    static replay::ReplayStore store;
    store.record(web::PageGenerator::generate(spec));
    return const_cast<web::WebPage*>(store.find("http://ctrl.example.com/"));
  }();
  return *page;
}

core::RunConfig adaptive_config() {
  core::RunConfig cfg;
  cfg.seed = 11;
  // Staggered slow origins + a deterministic fade pulse: the regime
  // where bundle size matters (inter-bundle gaps exceed the CR tail).
  cfg.testbed.heterogeneous_server_delays = true;
  cfg.testbed.server_delay_min = util::Duration::millis(30);
  cfg.testbed.server_delay_max = util::Duration::millis(350);
  cfg.testbed.topology_seed = 355;
  lte::FadeSpec fade;
  fade.kind = lte::FadeSpec::Kind::kPulse;
  fade.period = util::Duration::seconds(4);
  fade.duty = 0.5;
  fade.high = 1.0;
  fade.low = 0.25;
  fade.horizon = util::Duration::seconds(60);
  cfg.testbed.fade_profile = fade;
  cfg.ctrl = ctrl::ControllerConfig::latency_tuned(cfg.testbed.radio.rrc);
  cfg.ctrl.page_bytes_hint = ctrl_page().total_bytes();
  return cfg;
}

TEST(AdaptiveE2E, ControllerRetunesUnderFade) {
  const core::RunResult r = core::ExperimentRunner::run(
      core::Scheme::kParcelAdaptive, ctrl_page(), adaptive_config());
  EXPECT_TRUE(r.ok);
  EXPECT_GT(r.ctrl_retunes, 0u);
  EXPECT_GT(r.ctrl_threshold, 0);
  EXPECT_GT(r.ctrl_goodput_bps, 0);
  EXPECT_GT(r.ctrl_rtt_us, 0);
  EXPECT_GT(r.bundles, 1u);
}

TEST(AdaptiveE2E, JobsFanOutIsBitwiseIdentical) {
  std::vector<core::ExperimentTask> tasks;
  for (std::uint64_t seed : {11ULL, 12ULL, 13ULL}) {
    core::RunConfig cfg = adaptive_config();
    cfg.seed = seed;
    tasks.push_back(core::ExperimentTask{core::Scheme::kParcelAdaptive,
                                         &ctrl_page(), cfg});
  }
  const std::vector<core::RunResult> serial = core::run_experiments(tasks, 1);
  const std::vector<core::RunResult> fanned = core::run_experiments(tasks, 4);
  EXPECT_TRUE(serial == fanned);
}

TEST(AdaptiveE2E, JobsFanOutIsBitwiseIdenticalUnderFaults) {
  core::RunConfig cfg = adaptive_config();
  cfg.testbed.faults.loss_probability = 0.05;
  cfg.testbed.faults.blackouts.push_back(
      {util::TimePoint::at_seconds(1.0), util::Duration::millis(400)});
  std::vector<core::ExperimentTask> tasks(
      3, core::ExperimentTask{core::Scheme::kParcelAdaptive, &ctrl_page(),
                              cfg});
  const std::vector<core::RunResult> serial = core::run_experiments(tasks, 1);
  const std::vector<core::RunResult> fanned = core::run_experiments(tasks, 4);
  EXPECT_TRUE(serial == fanned);
}

// With min_target == max_target == X the controller is installed and taps
// every burst but can never move the threshold, so kParcelAdaptive must be
// exactly the fixed PARCEL(X) `scheme`: the tap observes, never steers.
void expect_pinned_matches_fixed(core::RunConfig cfg, util::Bytes x,
                                 core::Scheme scheme) {
  cfg.ctrl.min_target = cfg.ctrl.max_target = x;
  for (std::uint64_t seed : {11ULL, 12ULL, 13ULL, 14ULL}) {
    cfg.seed = seed;
    const core::RunResult pinned = core::ExperimentRunner::run(
        core::Scheme::kParcelAdaptive, ctrl_page(), cfg);
    const core::RunResult fixed =
        core::ExperimentRunner::run(scheme, ctrl_page(), cfg);
    const std::string at =
        core::to_string(scheme) + " seed " + std::to_string(seed);
    EXPECT_EQ(pinned.ctrl_retunes, 0u) << at;
    EXPECT_EQ(pinned.ctrl_threshold, x) << at;
    EXPECT_EQ(pinned.trace.serialize(), fixed.trace.serialize()) << at;
    EXPECT_EQ(pinned.olt.sec(), fixed.olt.sec()) << at;
    EXPECT_EQ(pinned.tlt.sec(), fixed.tlt.sec()) << at;
    EXPECT_EQ(pinned.radio.total.j(), fixed.radio.total.j()) << at;
    EXPECT_EQ(pinned.events_executed, fixed.events_executed) << at;
  }
}

// Every size a fixed enumerator covers.
void expect_pinned_matches_every_fixed(const core::RunConfig& cfg) {
  expect_pinned_matches_fixed(cfg, util::kib(512), core::Scheme::kParcel512K);
  expect_pinned_matches_fixed(cfg, util::mib(1), core::Scheme::kParcel1M);
  expect_pinned_matches_fixed(cfg, util::mib(2), core::Scheme::kParcel2M);
}

TEST(AdaptiveE2E, PinnedClampsMatchFixedScheme) {
  expect_pinned_matches_every_fixed(adaptive_config());
}

TEST(AdaptiveE2E, PinnedClampsMatchFixedSchemeUnderFaults) {
  core::RunConfig cfg = adaptive_config();
  cfg.testbed.faults.loss_probability = 0.05;
  cfg.testbed.faults.blackouts.push_back(
      {util::TimePoint::at_seconds(1.0), util::Duration::millis(400)});
  cfg.testbed.faults.server_error_probability = 0.05;
  expect_pinned_matches_every_fixed(cfg);
}

}  // namespace
}  // namespace parcel

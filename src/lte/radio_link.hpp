// The LTE access link: a Link whose transfers are gated by the RRC state
// machine (promotion latency) and whose rate follows a signal-fade
// process. One RrcMachine is shared by the uplink and downlink halves —
// it models the UE's single radio.
#pragma once

#include <memory>

#include "lte/rrc.hpp"
#include "net/link.hpp"
#include "sim/scheduler.hpp"
#include "util/rng.hpp"

namespace parcel::lte {

/// Piecewise-constant multiplicative rate fade, AR(1)-correlated across
/// steps. Pre-generates a fixed horizon of steps so the scheduler's event
/// queue drains when the workload does.
class FadeProcess {
 public:
  struct Params {
    Duration step = Duration::millis(500);
    Duration horizon = Duration::seconds(120);
    double mean_scale = 0.85;  // long-run average of the fade multiplier
    double volatility = 0.08;  // per-step innovation stddev
    double correlation = 0.9;  // AR(1) coefficient
    double floor = 0.25;       // deep-fade clamp
  };

  FadeProcess(util::Rng rng, Params params);

  /// Deterministic profile (ISSUE 10): an explicit step trajectory, no
  /// RNG. `params.step` gives the step cadence; `steps` must be
  /// non-empty with every value in (0, 1].
  [[nodiscard]] static FadeProcess from_steps(Params params,
                                              std::vector<double> steps);

  /// Fade multiplier in effect at time t (in (0, 1]).
  [[nodiscard]] double scale_at(TimePoint t) const;

 private:
  FadeProcess() = default;

  Params params_;
  std::vector<double> steps_;
};

/// Deterministic signal-fade profile (ISSUE 10): names an exact bandwidth
/// trajectory for the radio, unlike the seeded AR(1) FadeProcess. The
/// adaptive-bundling bench sweeps these so the controller and the fixed
/// bundle-size grid face *identical* link conditions.
struct FadeSpec {
  enum class Kind : std::uint8_t {
    kPulse,  // square wave: high, dropping to low for duty of each period
    kRamp,   // linear high -> low across the horizon
    kStep,   // high until `at`, then low for the rest of the horizon
  };

  Kind kind = Kind::kPulse;
  Duration step = Duration::millis(500);
  Duration horizon = Duration::seconds(120);
  double high = 1.0;
  double low = 0.3;
  /// kPulse: cadence of the square wave and the fraction of each period
  /// spent in the faded (low) state.
  Duration period = Duration::seconds(10);
  double duty = 0.5;
  /// kStep: when the drop happens.
  Duration at = Duration::seconds(5);

  /// Throws std::invalid_argument on nonsense (non-positive durations,
  /// scales outside (0, 1], high < low, duty outside [0, 1]).
  void validate() const;

  /// The per-step multiplier trajectory this spec describes.
  [[nodiscard]] std::vector<double> build_steps() const;

  /// Convenience: the FadeProcess the radio consumes.
  [[nodiscard]] FadeProcess build() const;
};

struct RadioParams {
  util::BitRate uplink_rate = util::BitRate::mbps(2.0);
  /// Paper §8.3: observed download speeds of 4-8 Mbps, median 6.
  util::BitRate downlink_rate = util::BitRate::mbps(6.0);
  /// One-way RAN latency; paper cites LTE RTTs of 70-86 ms end to end, of
  /// which the radio leg dominates.
  Duration one_way_delay = Duration::millis(45);
  RrcConfig rrc;
};

/// One half (direction) of the radio. Applies promotion latency before
/// serialization and reports activity back to the shared RRC machine.
class RadioLinkHalf final : public net::Link {
 public:
  RadioLinkHalf(sim::Scheduler& sched, std::string name, util::BitRate rate,
                Duration prop_delay, std::shared_ptr<RrcMachine> rrc,
                std::shared_ptr<const FadeProcess> fade);

  void transmit(util::Bytes bytes, const net::BurstInfo& info,
                DeliveryCallback on_delivered) override;

 private:
  std::shared_ptr<RrcMachine> rrc_;
  std::shared_ptr<const FadeProcess> fade_;
};

/// Factory: builds the duplex radio link with a shared RRC machine and
/// optional fading. Returns the link plus the machine for inspection.
struct RadioLink {
  std::unique_ptr<net::DuplexLink> link;
  std::shared_ptr<RrcMachine> rrc;
  std::shared_ptr<const FadeProcess> fade;  // null when fading disabled
};

RadioLink make_radio_link(sim::Scheduler& sched, const RadioParams& params,
                          std::shared_ptr<const FadeProcess> fade = nullptr);

}  // namespace parcel::lte

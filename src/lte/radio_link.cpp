#include "lte/radio_link.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace parcel::lte {

FadeProcess::FadeProcess(util::Rng rng, Params params) : params_(params) {
  auto n = static_cast<std::size_t>(
      std::ceil(params.horizon / params.step)) + 1;
  steps_.reserve(n);
  double x = params.mean_scale;
  for (std::size_t i = 0; i < n; ++i) {
    steps_.push_back(std::clamp(x, params.floor, 1.0));
    // AR(1) around the mean: x' = mean + rho (x - mean) + noise.
    x = params.mean_scale + params.correlation * (x - params.mean_scale) +
        rng.normal(0.0, params.volatility);
  }
}

FadeProcess FadeProcess::from_steps(Params params,
                                    std::vector<double> steps) {
  if (steps.empty()) {
    throw std::invalid_argument("FadeProcess::from_steps: empty trajectory");
  }
  for (double s : steps) {
    if (!(s > 0.0) || s > 1.0) {
      throw std::invalid_argument(
          "FadeProcess::from_steps: scales must be in (0, 1]");
    }
  }
  FadeProcess out;
  out.params_ = params;
  out.steps_ = std::move(steps);
  return out;
}

void FadeSpec::validate() const {
  if (step <= Duration::zero() || horizon <= Duration::zero()) {
    throw std::invalid_argument("FadeSpec: step/horizon must be positive");
  }
  if (!(low > 0.0) || high > 1.0 || low > high) {
    throw std::invalid_argument(
        "FadeSpec: need 0 < low <= high <= 1");
  }
  if (kind == Kind::kPulse) {
    if (period <= Duration::zero()) {
      throw std::invalid_argument("FadeSpec: pulse period must be positive");
    }
    if (duty < 0.0 || duty > 1.0) {
      throw std::invalid_argument("FadeSpec: duty must be in [0, 1]");
    }
  }
  if (kind == Kind::kStep && at < Duration::zero()) {
    throw std::invalid_argument("FadeSpec: step time must be >= 0");
  }
}

std::vector<double> FadeSpec::build_steps() const {
  validate();
  auto n = static_cast<std::size_t>(std::ceil(horizon / step)) + 1;
  std::vector<double> steps;
  steps.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    double t = static_cast<double>(i) * step.sec();
    double scale = high;
    switch (kind) {
      case Kind::kPulse: {
        // Faded for the *last* `duty` of each period, so every period
        // opens at full strength (the sweep's recovery phase).
        double phase = std::fmod(t, period.sec()) / period.sec();
        scale = phase >= 1.0 - duty ? low : high;
        break;
      }
      case Kind::kRamp: {
        double frac = horizon.sec() > 0.0 ? t / horizon.sec() : 1.0;
        scale = high + (low - high) * std::min(1.0, frac);
        break;
      }
      case Kind::kStep:
        scale = t >= at.sec() ? low : high;
        break;
    }
    steps.push_back(scale);
  }
  return steps;
}

FadeProcess FadeSpec::build() const {
  FadeProcess::Params params;
  params.step = step;
  params.horizon = horizon;
  return FadeProcess::from_steps(params, build_steps());
}

double FadeProcess::scale_at(TimePoint t) const {
  auto idx = static_cast<std::size_t>(std::max(0.0, t.sec()) /
                                      params_.step.sec());
  if (idx >= steps_.size()) idx = steps_.size() - 1;
  return steps_[idx];
}

RadioLinkHalf::RadioLinkHalf(sim::Scheduler& sched, std::string name,
                             util::BitRate rate, Duration prop_delay,
                             std::shared_ptr<RrcMachine> rrc,
                             std::shared_ptr<const FadeProcess> fade)
    : net::Link(sched, std::move(name), rate, prop_delay),
      rrc_(std::move(rrc)),
      fade_(std::move(fade)) {}

void RadioLinkHalf::transmit(util::Bytes bytes, const net::BurstInfo& info,
                             DeliveryCallback on_delivered) {
  if (fault_drop(bytes, info)) return;
  TimePoint now = sched_.now();
  if (fade_) set_rate_scale(fade_->scale_at(now));
  Duration promo = rrc_->promotion_delay(now);
  TimePoint earliest = now + promo;
  TimePoint delivery = enqueue_burst(earliest, bytes, info);
  // Radio is active from the promotion start through the end of
  // serialization (delivery minus propagation).
  rrc_->note_activity(now, delivery - prop_delay());
  finish_transmit(delivery, bytes, info, std::move(on_delivered));
}

RadioLink make_radio_link(sim::Scheduler& sched, const RadioParams& params,
                          std::shared_ptr<const FadeProcess> fade) {
  auto rrc = std::make_shared<RrcMachine>(params.rrc);
  auto up = std::make_unique<RadioLinkHalf>(sched, "radio.up",
                                            params.uplink_rate,
                                            params.one_way_delay, rrc, fade);
  auto down = std::make_unique<RadioLinkHalf>(
      sched, "radio.down", params.downlink_rate, params.one_way_delay, rrc,
      fade);
  RadioLink out;
  out.link = std::make_unique<net::DuplexLink>(std::move(up), std::move(down));
  out.rrc = std::move(rrc);
  out.fade = std::move(fade);
  return out;
}

}  // namespace parcel::lte

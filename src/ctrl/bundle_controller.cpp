#include "ctrl/bundle_controller.hpp"

#include <algorithm>
#include <stdexcept>

namespace parcel::ctrl {

std::uint64_t isqrt_u64(std::uint64_t v) {
  if (v == 0) return 0;
  // Newton's method from an overestimate (v/2 + 1 >= sqrt(v) for all v,
  // and never overflows): converges in a few iterations and the floor
  // fix-up at the end makes the result exact.
  std::uint64_t x = v;
  std::uint64_t y = v / 2 + 1;
  while (y < x) {
    x = y;
    y = (x + v / x) / 2;
  }
  while (x > 0 && x > v / x) --x;          // ensure x*x <= v without overflow
  while ((x + 1) <= v / (x + 1)) ++x;      // ensure (x+1)^2 > v
  return x;
}

ControllerConfig ControllerConfig::latency_tuned(const lte::RrcConfig& rrc) {
  ControllerConfig cfg;
  cfg.estimator.rrc = rrc;
  // Latency control wants to *track* signal swings, not average them
  // out: a quarter-gain EWMA reaches ~76% of a step in five samples
  // (roughly one fade phase at LTE burst cadence), and the tighter
  // hysteresis lets the sqrt-compressed b* swing (a 4x rate fade only
  // doubles b*) actually reach the scheduler.
  cfg.estimator.goodput_gamma_shift = 2;
  cfg.hysteresis_pct = 10;
  // The inter-bundle gaps of a threshold schedule mostly land in the
  // short-DRX window, so the per-bundle stall is the short-DRX resume.
  // alpha' = √(promo_sec), in milli-units: √(0.040) = 0.200 -> 200.
  // Derated by 5/8: the pure model ignores that earlier bundles overlap
  // client-side parse/JS with the radio, which shifts the latency
  // optimum below √(promo·s·B) in practice.
  double promo_sec = rrc.promo_from_short_drx.sec();
  cfg.alpha_milli =
      static_cast<std::int64_t>(
          isqrt_u64(static_cast<std::uint64_t>(promo_sec * 1e6 + 0.5))) *
      5 / 8;
  if (cfg.alpha_milli < 1) cfg.alpha_milli = 1;
  return cfg;
}

void ControllerConfig::validate() const {
  if (alpha_milli <= 0) {
    throw std::invalid_argument("ControllerConfig: alpha_milli must be > 0");
  }
  if (page_bytes_hint <= 0) {
    throw std::invalid_argument(
        "ControllerConfig: page_bytes_hint must be > 0");
  }
  if (min_target <= 0 || max_target < min_target) {
    throw std::invalid_argument("ControllerConfig: bad target clamps");
  }
  if (hysteresis_pct < 0 || hysteresis_pct > 1000) {
    throw std::invalid_argument(
        "ControllerConfig: hysteresis_pct out of range");
  }
}

BundleController::BundleController(ControllerConfig config,
                                   util::Bytes initial_threshold)
    : config_(config),
      estimator_(config.estimator),
      threshold_(initial_threshold) {
  config_.validate();
  if (initial_threshold <= 0) {
    throw std::invalid_argument(
        "BundleController: initial threshold must be > 0");
  }
}

util::Bytes BundleController::target() const {
  // B̂: the bytes still to carry, not the page total — the OLT form of
  // §6's model. Early in the load (much remaining, promotion overhead
  // amortizes) b* is large; as the page drains, b* tapers so the final
  // bundles release early and onload isn't stuck behind a half-filled
  // threshold. Floored at hint/8: once more than the hint has crossed
  // the radio the page size was underestimated, and assuming "almost
  // done" forever would trickle tiny bundles through every promotion.
  const std::int64_t b_hat =
      std::max<std::int64_t>(config_.page_bytes_hint - estimator_.downlink_bytes(),
                             config_.page_bytes_hint / 8);
  const auto s_hat = static_cast<std::uint64_t>(estimator_.goodput_bps());
  const std::uint64_t root =
      isqrt_u64(s_hat * static_cast<std::uint64_t>(b_hat));
  auto target = static_cast<std::int64_t>(root) * config_.alpha_milli / 1000;
  return std::clamp<util::Bytes>(target, config_.min_target,
                                 config_.max_target);
}

std::optional<util::Bytes> BundleController::on_record(
    const trace::PacketRecord& r) {
  estimator_.on_record(r);
  const util::Bytes next = target();
  // Hysteresis: |next - threshold| must exceed hysteresis_pct of the
  // current threshold before the scheduler is disturbed.
  const std::int64_t delta =
      next > threshold_ ? next - threshold_ : threshold_ - next;
  if (delta * 100 <= threshold_ * config_.hysteresis_pct) return std::nullopt;
  threshold_ = next;
  ++retunes_;
  return next;
}

}  // namespace parcel::ctrl

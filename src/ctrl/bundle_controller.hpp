// ctrl::BundleController: closed-loop b* control (ISSUE 10, tentpole).
//
// The paper's §6 model picks the energy/latency-optimal bundle size
// b* = α√(sB) from the link speed s and page size B; the repo carried it
// only as a static anchor (parcel_figures sec6). This controller closes the
// loop: every radio burst feeds the LinkEstimator, and at bundle
// boundaries the controller recomputes
//
//     b* = alpha_milli/1000 * isqrt( ŝ * B̂ )
//
// with ŝ the EWMA goodput (bytes/sec) and B̂ the page-size estimate
// (the configured hint, raised to the downlink bytes actually observed —
// a heavy page can only grow the estimate). The target is clamped to
// [min_target, max_target] and passed through a hysteresis band: the
// scheduler is only retuned when the new target moves more than
// hysteresis_pct away from the current threshold, so estimator jitter
// cannot thrash the bundle schedule.
//
// alpha defaults to the paper's energy-optimal 0.74. The latency_tuned()
// preset instead derives alpha from the RRC promotion stall: with n
// bundles the load pays (n-1) DRX resume promotions on top of B/s
// serialization, so mean OLT is minimized near b* = √(s·B·promo) — the
// same √(sB) law with alpha' = √(promo_sec). That is the preset
// the adaptive harness (parcel_figures adaptive) races against the
// fixed-size grid.
//
// Determinism: integer arithmetic throughout (isqrt is Newton on
// uint64), no RNG, no clocks. The controller only reads capture records,
// so pinning the clamps (min_target == max_target == the starting
// threshold) leaves a run byte-identical to the fixed-threshold scheme.
#pragma once

#include <cstdint>
#include <optional>

#include "ctrl/link_estimator.hpp"
#include "util/units.hpp"

namespace parcel::ctrl {

/// Integer square root: floor(sqrt(v)). Deterministic (Newton's method
/// on uint64), exposed for tests.
[[nodiscard]] std::uint64_t isqrt_u64(std::uint64_t v);

struct ControllerConfig {
  EstimatorConfig estimator;
  /// alpha in milli-units (740 = the paper's §6 energy-optimal 0.74).
  std::int64_t alpha_milli = 740;
  /// Page-size hint (§6 works the model at B = 2 MB). B̂ at any instant
  /// is the *remaining* bytes — hint minus what already crossed the
  /// radio, floored at hint/8 — so the target tapers as the page drains.
  util::Bytes page_bytes_hint = util::mib(2);
  /// Target clamps: a floor below any sane MHTML part is pointless, and
  /// the ceiling keeps a burst of optimistic samples from deferring the
  /// whole page to one bundle.
  util::Bytes min_target = util::kib(64);
  util::Bytes max_target = util::mib(4);
  /// Retune only when the recomputed target moves more than this many
  /// percent away from the current threshold.
  int hysteresis_pct = 20;

  /// OLT-tuned preset: alpha' = √(promo_sec) for the DRX resume stall
  /// the schedule actually pays between bundles (see header comment).
  [[nodiscard]] static ControllerConfig latency_tuned(
      const lte::RrcConfig& rrc);

  /// Throws std::invalid_argument on nonsense.
  void validate() const;
};

class BundleController {
 public:
  BundleController(ControllerConfig config, util::Bytes initial_threshold);

  /// Fold one captured radio burst and recompute the target. Returns the
  /// new threshold when the hysteresis band is crossed (the caller
  /// retunes the scheduler), std::nullopt otherwise.
  [[nodiscard]] std::optional<util::Bytes> on_record(
      const trace::PacketRecord& r);

  /// Current computed target (clamped, pre-hysteresis).
  [[nodiscard]] util::Bytes target() const;
  /// Threshold the scheduler is currently running with.
  [[nodiscard]] util::Bytes threshold() const { return threshold_; }
  [[nodiscard]] std::uint64_t retunes() const { return retunes_; }
  [[nodiscard]] const LinkEstimator& estimator() const { return estimator_; }

 private:
  ControllerConfig config_;
  LinkEstimator estimator_;
  util::Bytes threshold_;
  std::uint64_t retunes_ = 0;
};

}  // namespace parcel::ctrl

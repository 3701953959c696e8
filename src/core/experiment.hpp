// Experiment harness implementing the paper's methodology (§7):
// single-run execution for every scheme, rounds of back-to-back runs,
// signal-comparability filtering, first-round discard, and per-page
// median reporting.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/bundle_scheduler.hpp"
#include "core/testbed.hpp"
#include "ctrl/bundle_controller.hpp"
#include "lte/device.hpp"
#include "lte/energy.hpp"
#include "trace/packet_trace.hpp"
#include "web/page.hpp"

namespace parcel::core {

enum class Scheme : std::uint8_t {
  kDir,         // traditional mobile browser
  kHttpProxy,   // traditional web proxy (proxy DNS, per-object requests)
  kSpdyProxy,   // single multiplexed client-proxy connection (§4.3)
  kParcelInd,   // PARCEL, per-object push
  kParcelOnld,  // PARCEL, batch at onload
  kParcel512K,  // PARCEL(X), X = 512 KB
  kParcel1M,
  kParcel2M,
  kCloudBrowser,  // cloud-heavy baseline (CB)
  /// PARCEL(X) with the ctrl::BundleController retuning X mid-load from
  /// the live capture (DESIGN.md §15). With the controller's target
  /// clamps pinned (min_target == max_target == the initial threshold)
  /// this is byte-for-byte the fixed scheme at that threshold.
  kParcelAdaptive,
};

[[nodiscard]] std::string to_string(Scheme s);
[[nodiscard]] bool is_parcel(Scheme s);
[[nodiscard]] BundleConfig bundle_for(Scheme s);

struct RunConfig {
  TestbedConfig testbed;
  lte::DeviceProfile device = lte::DeviceProfile::galaxy_s3();
  std::uint64_t seed = 1;
  /// Paper: packet collection limited to 60 s per experiment.
  util::Duration capture_window = util::Duration::seconds(60);
  /// Proxy completion heuristic window (§4.5).
  util::Duration proxy_inactivity_window = util::Duration::seconds(1.5);
  /// Controller parameters for kParcelAdaptive runs (ISSUE 10); ignored
  /// by every other scheme. The estimator's RRC timers are synced to
  /// testbed.radio.rrc by the harness so the gate matches the radio.
  ctrl::ControllerConfig ctrl;
  /// Non-zero: override the threshold of any kThreshold bundle policy
  /// (including kParcelAdaptive's starting point). This is how
  /// bench_adaptive sweeps a fixed-size grid through the existing
  /// run_experiments fan-out without a Scheme enumerator per size.
  util::Bytes parcel_threshold_override = 0;
};

struct RunResult {
  Scheme scheme = Scheme::kDir;
  bool ok = false;  // load completed within the capture window

  util::Duration olt = util::Duration::zero();
  util::Duration tlt = util::Duration::zero();
  lte::EnergyReport radio;
  util::Duration cpu_busy = util::Duration::zero();

  std::size_t radio_http_requests = 0;  // HTTP requests crossing the radio
  std::size_t tcp_connections = 0;      // connections over the radio
  std::size_t dns_lookups = 0;          // client-side lookups
  std::size_t objects_loaded = 0;
  std::size_t bundles = 0;
  std::size_t fallbacks = 0;
  util::Bytes downlink_bytes = 0;
  util::Bytes uplink_bytes = 0;
  double mean_signal_dbm = -90.0;

  // Fault-robustness surface (all zero in fault-free runs).
  std::uint64_t retransmits = 0;      // client-side TCP RTO retransmissions
  std::uint64_t fault_drops = 0;      // bursts destroyed by the injector
  std::uint64_t fault_deferrals = 0;  // bursts deferred by blackout windows
  std::size_t direct_fetches = 0;     // degraded-mode direct-to-origin GETs
  bool degraded = false;              // client presumed the proxy dead
  /// First injected fault -> next delivered payload burst.
  util::Duration recovery = util::Duration::zero();

  // Closed-loop control telemetry (ISSUE 10): all zero except under
  // kParcelAdaptive. Fixed-point integers
  // straight from the controller, so cross-jobs identity is bitwise.
  std::uint64_t ctrl_retunes = 0;        // mid-load threshold changes
  std::int64_t ctrl_goodput_bps = 0;     // final EWMA goodput estimate
  std::int64_t ctrl_rtt_us = 0;          // final EWMA RTT estimate
  util::Bytes ctrl_threshold = 0;        // threshold at end of load

  trace::PacketTrace trace;  // kept for timeline figures (6a, 7a)

  /// Discrete events the run's scheduler executed — the denominator for
  /// simulated-joules-per-event (BENCH_kernel.json): radio energy per
  /// unit of kernel work, a drift alarm for the event machinery's energy
  /// accounting. Deterministic, so the bench gates it tightly.
  std::uint64_t events_executed = 0;

  // Allocation telemetry from this run's arena (DESIGN.md §11): bytes and
  // allocation calls served by the bump allocator. Never part of the
  // simulated outcome — placement cannot feed results.
  std::size_t arena_bytes = 0;
  std::size_t arena_allocations = 0;
};

class ExperimentRunner {
 public:
  /// One full page load of `page` under `scheme`. Fresh testbed, cold
  /// caches (the paper flushes caches between runs).
  static RunResult run(Scheme scheme, const web::WebPage& page,
                       const RunConfig& config);
};

/// Per-scheme collection across runs with median accessors.
struct SchemeSeries {
  std::vector<RunResult> runs;

  [[nodiscard]] double median_olt_sec() const;
  [[nodiscard]] double median_tlt_sec() const;
  [[nodiscard]] double median_radio_j() const;
  [[nodiscard]] double median_cr_j() const;
};

struct RoundsConfig {
  int rounds = 5;
  /// Drop rounds where the schemes saw signal differing by more than this
  /// (paper §7.2 discarded ~50% of rounds for incomparable signal).
  double signal_tolerance_db = 3.0;
  /// Paper ignores the first run of each round (warm-up effects).
  bool discard_first_round = true;
  /// Worker threads fanning the (round × scheme) runs out. Every run's
  /// seed is derived from (base seed, round, scheme slot) up front, so any
  /// jobs value produces bitwise-identical results; 1 runs inline on the
  /// calling thread, <= 0 selects hardware_concurrency.
  int jobs = 1;
  RunConfig base;
};

struct RoundsOutcome {
  std::map<Scheme, SchemeSeries> series;
  int rounds_total = 0;
  int rounds_kept = 0;
};

/// Run `schemes` back-to-back per round with per-run fade seeds derived
/// from the round, filter incomparable rounds, and return the kept runs.
RoundsOutcome run_rounds(const web::WebPage& page,
                         const std::vector<Scheme>& schemes,
                         const RoundsConfig& config);

}  // namespace parcel::core

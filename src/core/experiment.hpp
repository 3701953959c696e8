// Experiment harness implementing the paper's methodology (§7):
// single-run execution for every scheme, and the (page × round × scheme)
// grid reduced to per-page medians.
#pragma once

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
  /// clamps pinned (min_target == max_target == X) this is byte-for-byte
  /// the fixed scheme at threshold X.
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
  /// testbed.radio.rrc by the harness so the gate matches the radio. The
  /// run starts at 512K clamped into [min_target, max_target], so pinned
  /// clamps (min_target == max_target == X) run the fixed PARCEL(X).
  ctrl::ControllerConfig ctrl;
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
  /// simulated joules per event (tests/test_alloc_guards.cpp): radio energy
  /// per unit of kernel work, a drift alarm for the event machinery's
  /// energy accounting. Deterministic, so ctest gates it tightly.
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

/// Seed strides of a (page × round) grid. Run r of page p uses
///   seed      = base.seed + offset + per_page·p + per_round·r
///   fade_seed = seed·fade_mul + 1
/// and every scheme of one (p, r) shares both, so the schemes face the
/// same workload draws and the same fade trajectory (DESIGN.md §4). The
/// defaults are the replay-configuration grids' strides; those grids run
/// without fade, so their fade seed reaches no simulation.
struct GridSeeds {
  std::uint64_t per_page = 101;
  std::uint64_t per_round = 13;
  std::uint64_t offset = 1;
  std::uint64_t fade_mul = 7;
};

/// One scheme's per-page medians over the grid's rounds, in page order.
struct PageMedians {
  std::vector<double> olt_sec;
  std::vector<double> tlt_sec;
  std::vector<double> radio_j;
  std::vector<double> cr_j;
  std::vector<double> requests;
  std::vector<double> tcp_connections;
  std::vector<double> page_bytes;

  /// Exact equality (no tolerance): the determinism gates' comparison.
  bool operator==(const PageMedians&) const = default;
};

/// Load every page `rounds` times under each scheme and return one
/// PageMedians per scheme, in `schemes` order. Every run builds its own
/// testbed from seeds that are a pure function of (base, seeds, p, r), so
/// the grid fans out over `jobs` workers (1 runs inline, <= 0 selects
/// hardware_concurrency) with bitwise-identical results for any jobs
/// value. Throws std::invalid_argument when rounds <= 0 or base's fault
/// plan is malformed. Pages are borrowed for the call.
[[nodiscard]] std::vector<PageMedians> run_grid(
    const std::vector<const web::WebPage*>& pages,
    const std::vector<Scheme>& schemes, int rounds, const RunConfig& base,
    const GridSeeds& seeds = {}, int jobs = 1);

}  // namespace parcel::core

// FleetRunner: many concurrent client sessions against one shared proxy,
// in one deterministic simulation (ISSUE 5, tentpole c).
//
// Two composed layers, both bit-reproducible:
//
//  * The fleet macro-simulation — a single sim::Scheduler timeline where K
//    clients arrive under a seeded arrival process over the page corpus.
//    Each admitted arrival consults the fleet::SharedObjectStore (session
//    N warms session N+1), submits the resulting fetch/parse/bundle tasks
//    to fleet::ProxyCompute, and accrues queueing delay; a client whose
//    task batch would overflow the bounded queue is shed 503-style.
//
//  * The per-session micro-simulations — one core::ExperimentRunner run
//    per admitted client (own Testbed, own seeds), fanned out across
//    core::ParallelRunner workers and folded in client order, so every
//    aggregate below is bitwise identical for any --jobs value.
//
// The macro layer depends only on the corpus and the derived client
// columns (not on micro-run outputs), and the micro layer only on the
// columns, so the two compose without feedback and the whole fleet run is
// a pure function of (corpus, FleetConfig). A client's fleet-adjusted
// OLT/TLT is its session-level value plus its queueing delay — service
// time is already inside the session simulation and is deliberately not
// added twice (DESIGN.md §10).
//
// Every run takes one path, sized for million-session fleets: derive the
// client columns, partition the macro timeline into provably
// non-interacting epochs (epoch_plan.hpp), run the epochs (concurrently
// on ParallelRunner when there are two or more; a single epoch fans its
// micro-sims out instead), and fold every session into
// core::StreamingStats sketches and exact sums in client order. Keeping
// per-client results is an optional sink on top of those folds
// (FleetConfig::streaming = false); it only observes.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/experiment.hpp"
#include "core/streaming_stats.hpp"
#include "fleet/proxy_compute.hpp"
#include "fleet/shared_store.hpp"
#include "web/page.hpp"

namespace parcel::fleet {

/// Arrival-process families (ISSUE 10): how the fleet's K clients land
/// on the timeline. All are seeded rate-modulated renewal processes —
/// the inter-arrival draw at time t uses mean `mean_interarrival / m(t)`
/// — so arrival times are non-decreasing by client index (the epoch
/// planner depends on that) and bitwise deterministic.
enum class ArrivalProcess : std::uint8_t {
  kPoisson,     // m(t) = 1: the historical homogeneous process
  kFlashCrowd,  // m(t) = 1 + flash_boost inside the flash window
  kDiurnal,     // m(t) = 1 + amplitude * sin(2π t / period)
};

[[nodiscard]] std::string_view to_string(ArrivalProcess p);

struct FleetConfig {
  /// Number of concurrent client sessions (K).
  int clients = 8;
  core::Scheme scheme = core::Scheme::kParcelInd;
  /// Seeded arrivals: exponential inter-arrival times with this mean,
  /// cumulative from t=0, rate-modulated per `arrivals`. kPoisson
  /// consumes exactly the historical draw sequence (byte-identical
  /// fleets).
  std::uint64_t arrival_seed = 2014;
  util::Duration mean_interarrival = util::Duration::millis(200);
  ArrivalProcess arrivals = ArrivalProcess::kPoisson;
  /// kFlashCrowd: arrival rate is multiplied by (1 + flash_boost) while
  /// t is inside [flash_at, flash_at + flash_window] — the thundering
  /// herd the admission controller and shard tiers must absorb.
  double flash_boost = 19.0;
  util::Duration flash_at = util::Duration::seconds(2);
  util::Duration flash_window = util::Duration::seconds(1);
  /// kDiurnal: sinusoidal load swing (period scaled to simulation time;
  /// amplitude in [0, 1) keeps the rate positive).
  util::Duration diurnal_period = util::Duration::seconds(20);
  double diurnal_amplitude = 0.8;
  ProxyComputeConfig compute;
  /// Per-client base run configuration; per-client seeds are derived from
  /// base.seed and the client index. base.testbed.faults composes: the
  /// plan reaches both the per-session testbeds and the proxy compute
  /// model's blackout windows. Disabled (the default) keeps every
  /// per-session result byte-identical to the single-client harness.
  core::RunConfig base;
  /// Micro-simulation fan-out width (core::ParallelRunner semantics:
  /// 1 = inline, <= 0 = hardware concurrency). Any value produces
  /// bitwise-identical fleet metrics.
  int jobs = 1;

  /// Sharded proxy fleet (ISSUE 8, tentpole). 1 keeps §10's single-proxy
  /// model bit-for-bit; N > 1 stands up N independent proxies — each with
  /// its own L1 SharedObjectStore and its own ProxyCompute pool (this
  /// `compute` config per shard) — behind a rendezvous-hash front
  /// (shard_router.hpp) keyed on the client id, over one shared L2 store.
  /// An L1 miss that hits the L2 costs one kTransfer task
  /// (compute.costs.transfer_*) instead of origin fetch + parse.
  int shards = 1;
  /// Fleet-layer fault plan: proxy_crash_at / proxy_restart_after name
  /// the seeded crash whose victim *shard* dies mid-run (queued and
  /// in-flight sessions hand off to survivors; restart rejoins with a
  /// cold L1). Distinct from base.testbed.faults, which reaches the
  /// per-session testbeds and every pool's blackout windows. A crash
  /// requires shards > 1 (validate()).
  sim::FaultPlan shard_faults;

  /// Whether the per-client sink is dropped. Every run folds each
  /// admitted session into sketches and running sums as it completes and
  /// runs the macro timeline epoch-parallel whenever the config is
  /// provably interaction-free (epoch_plan.hpp). false additionally keeps
  /// one FleetClientResult per client in FleetMetrics.clients and takes
  /// the percentile fields exactly from them; true keeps nothing per
  /// client — memory stays bounded in K — and the percentile fields are
  /// sketch-backed with the documented LogHistogram relative-error bound.
  /// Integer counters and store/compute stats are exact either way.
  bool streaming = false;
  /// Minimum sessions per epoch (the planner also enforces >= K/1024 so
  /// epoch-merge state is O(1) in K).
  int epoch_min_sessions = 512;

  /// Throws std::invalid_argument on nonsense (clients < 1, negative
  /// inter-arrival, invalid compute config, malformed fault plan).
  void validate() const;
};

/// SoA columns for the fleet's per-client bookkeeping: 28 bytes per
/// client, each column scanned linearly by the macro epoch loop. Fleets
/// are uniform in scheme (config.scheme), so only the per-client varying
/// fields get columns; index k is the client id.
struct ClientColumns {
  std::vector<double> arrival_sec;
  std::vector<std::uint32_t> page_index;
  std::vector<std::uint64_t> seed;       // per-session RunConfig seed
  std::vector<std::uint64_t> fade_seed;  // per-session fade stream seed
  [[nodiscard]] std::size_t size() const { return arrival_sec.size(); }
};

/// Derive the K clients from the config: arrival times from the seeded
/// arrival process, pages round-robin over the corpus (the repeated-corpus
/// warming pattern), per-client seeds from base.seed and the client index.
/// Throws std::invalid_argument on an invalid config or an empty corpus.
[[nodiscard]] ClientColumns derive_client_columns(const FleetConfig& config,
                                                  std::size_t corpus_pages);

struct FleetClientResult {
  int client = 0;
  std::size_t page_index = 0;
  util::TimePoint arrival;
  bool shed = false;  // refused admission; no session was run
  /// Worst queueing delay over the client's proxy tasks (zero when shed).
  util::Duration queue_wait = util::Duration::zero();
  /// When the proxy finished this client's last task (macro timeline).
  util::TimePoint proxy_done;
  /// Fleet-adjusted load metrics: session result + queue_wait.
  util::Duration olt = util::Duration::zero();
  util::Duration tlt = util::Duration::zero();
  /// Crash-handoff accounting (ISSUE 8; zero unless this client was
  /// migrated off a crashed shard).
  int handoffs = 0;
  util::Duration recovery = util::Duration::zero();
  double redo_sec = 0.0;
  util::Bytes redo_bytes = 0;
  /// The per-session micro-simulation result (default-constructed when
  /// shed).
  core::RunResult session;

  bool operator==(const FleetClientResult&) const = default;
};

struct FleetMetrics {
  /// The per-client sink, indexed by client id (empty when streaming).
  std::vector<FleetClientResult> clients;
  int admitted = 0;
  int shed = 0;
  [[nodiscard]] double shed_rate() const {
    int total = admitted + shed;
    return total == 0 ? 0.0
                      : static_cast<double>(shed) / static_cast<double>(total);
  }

  /// Distributions over admitted clients (fleet-adjusted OLT, queueing
  /// delay), in seconds: exact over the sink, or from the sketches below
  /// when streaming.
  double olt_p50 = 0.0, olt_p95 = 0.0, olt_p99 = 0.0;
  double wait_p50 = 0.0, wait_p95 = 0.0, wait_p99 = 0.0;

  /// Aggregate proxy work actually executed, and the cache-amplification
  /// headline: origin-facing (fetch+parse) seconds per admitted load.
  double proxy_busy_sec = 0.0;
  double fetch_parse_sec = 0.0;
  [[nodiscard]] double fetch_parse_sec_per_load() const {
    return admitted == 0 ? 0.0 : fetch_parse_sec / admitted;
  }

  /// Radio energy across admitted clients (the fleet's device-side bill).
  double energy_j_total = 0.0;
  [[nodiscard]] double energy_j_mean() const {
    return admitted == 0 ? 0.0 : energy_j_total / admitted;
  }

  SharedObjectStore::Stats store;
  ProxyCompute::Stats compute;

  // ---- Sharded-fleet surface (ISSUE 8; `shards` is 1 and the rest
  // zero/empty for single-proxy fleets). `store` above aggregates the L1
  // tiers (plain sums over shards) in sharded runs.
  int shards = 1;
  /// Per-shard L1 stats, index = shard id (empty when shards == 1).
  std::vector<SharedObjectStore::Stats> l1_shards;
  /// Shared L2 tier stats (all-zero when shards == 1).
  SharedObjectStore::Stats l2;
  /// Crash-driven handoff accounting — exact integer/double sums.
  std::uint64_t crash_handoffs = 0;      // session migrations executed
  std::uint64_t crash_killed_tasks = 0;  // tasks destroyed by the crash
  double redo_sec_total = 0.0;           // proxy service re-executed, s
  util::Bytes redo_bytes_total = 0;      // bytes the tier moved twice
  double recovery_sec_total = 0.0;       // sum over migrated sessions
  double recovery_sec_max = 0.0;         // slowest migrated session

  // ---- Fleet fault/degradation counters: exact integer sums over
  // admitted sessions' RunResults (sketches never replace these).
  std::uint64_t fault_retransmits = 0;
  std::uint64_t fault_drops = 0;
  std::uint64_t fault_deferrals = 0;
  std::uint64_t direct_fetches = 0;
  std::uint64_t degraded_sessions = 0;

  // ---- Fold surface, filled on every run. When streaming, the percentile
  // fields above come from these sketches (nearest-rank, within
  // LogHistogram::relative_error_bound()) and clients stays empty.
  bool streaming = false;  // FleetConfig::streaming of the run
  /// Epoch decomposition actually used (1 when degraded).
  int epochs = 0;
  bool epoch_parallel = false;
  /// Why the epoch planner degraded to one serial epoch ("" otherwise).
  std::string epoch_degrade_reason;
  /// Micro-sims that completed inside the capture window (r.ok).
  std::uint64_t sessions_ok = 0;
  core::StreamingStats olt_stats;     // fleet-adjusted OLT, seconds
  core::StreamingStats tlt_stats;     // fleet-adjusted TLT, seconds
  core::StreamingStats wait_stats;    // per-client worst queue wait, s
  core::StreamingStats energy_stats;  // per-session radio energy, joules
  /// Per-migrated-session recovery time, seconds (empty unless a sharded
  /// run crashed — which also degrades the plan to serial).
  core::StreamingStats recovery_stats;

  /// Exact identity of every field above, the per-client sink (with each
  /// session's RunResult) included: the fleet's determinism gates.
  bool operator==(const FleetMetrics&) const = default;
};

/// Run the fleet: derive the clients, plan epochs, macro-simulate
/// admission/store/queueing and micro-simulate every admitted session per
/// epoch (fanned across `config.jobs` workers), fold in client order.
[[nodiscard]] FleetMetrics run_fleet(
    const std::vector<const web::WebPage*>& corpus, const FleetConfig& config);

}  // namespace parcel::fleet

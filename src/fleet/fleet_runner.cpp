#include "fleet/fleet_runner.hpp"

#include <algorithm>
#include <cmath>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/arena.hpp"
#include "core/parallel_runner.hpp"
#include "fleet/epoch_plan.hpp"
#include "fleet/shard.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "web/parse_cache.hpp"

namespace parcel::fleet {

std::string_view to_string(ArrivalProcess p) {
  switch (p) {
    case ArrivalProcess::kPoisson:
      return "poisson";
    case ArrivalProcess::kFlashCrowd:
      return "flash-crowd";
    case ArrivalProcess::kDiurnal:
      return "diurnal";
  }
  throw std::logic_error("to_string: unknown ArrivalProcess");
}

void FleetConfig::validate() const {
  if (clients < 1) {
    throw std::invalid_argument("FleetConfig: clients must be >= 1, got " +
                                std::to_string(clients));
  }
  if (mean_interarrival < util::Duration::zero()) {
    throw std::invalid_argument(
        "FleetConfig: mean_interarrival must be >= 0");
  }
  if (!std::isfinite(flash_boost) || flash_boost < 0.0) {
    throw std::invalid_argument(
        "FleetConfig: flash_boost must be finite and >= 0");
  }
  if (flash_at < util::Duration::zero() ||
      flash_window < util::Duration::zero()) {
    throw std::invalid_argument(
        "FleetConfig: flash_at and flash_window must be >= 0");
  }
  if (diurnal_period <= util::Duration::zero()) {
    throw std::invalid_argument("FleetConfig: diurnal_period must be > 0");
  }
  if (!std::isfinite(diurnal_amplitude) || diurnal_amplitude < 0.0 ||
      diurnal_amplitude >= 1.0) {
    throw std::invalid_argument(
        "FleetConfig: diurnal_amplitude must be in [0, 1) so the arrival "
        "rate stays positive");
  }
  if (store_capacity < 0) {
    throw std::invalid_argument("FleetConfig: store_capacity must be >= 0");
  }
  if (epoch_min_sessions < 1) {
    throw std::invalid_argument(
        "FleetConfig: epoch_min_sessions must be >= 1");
  }
  if (shards < 1) {
    throw std::invalid_argument("FleetConfig: shards must be >= 1, got " +
                                std::to_string(shards));
  }
  if (l2_capacity < 0) {
    throw std::invalid_argument("FleetConfig: l2_capacity must be >= 0");
  }
  compute.validate();
  base.testbed.faults.validate();
  shard_faults.validate();
  if (shard_faults.proxy_crash_at.has_value() && shards < 2) {
    throw std::invalid_argument(
        "FleetConfig: a shard_faults crash requires shards >= 2 (a "
        "single-proxy fleet has no survivor to hand sessions off to)");
  }
}

namespace {

/// Rate multiplier m(t) for the inhomogeneous arrival processes.  The
/// inter-arrival draw taken at time t uses mean `mean_interarrival /
/// m(t)` — a deterministic thinning-free approximation of an
/// inhomogeneous Poisson process that keeps arrivals non-decreasing by
/// client index (the epoch planner's split test depends on that).
double arrival_rate_multiplier(const FleetConfig& config, util::TimePoint t) {
  switch (config.arrivals) {
    case ArrivalProcess::kPoisson:
      return 1.0;
    case ArrivalProcess::kFlashCrowd: {
      const double at = config.flash_at.sec();
      const double end = at + config.flash_window.sec();
      const double now = t.sec();
      return (now >= at && now < end) ? 1.0 + config.flash_boost : 1.0;
    }
    case ArrivalProcess::kDiurnal: {
      constexpr double kTwoPi = 6.283185307179586476925286766559;
      const double phase = kTwoPi * t.sec() / config.diurnal_period.sec();
      return 1.0 + config.diurnal_amplitude * std::sin(phase);
    }
  }
  throw std::logic_error("arrival_rate_multiplier: unknown process");
}

}  // namespace

ClientColumns derive_client_columns(const FleetConfig& config,
                                    std::size_t corpus_pages) {
  config.validate();
  if (corpus_pages == 0) {
    throw std::invalid_argument("derive_client_columns: corpus is empty");
  }
  // One dedicated stream for arrivals: adding clients never perturbs the
  // per-session seeds, which are pure functions of the client index.
  util::Rng arrivals(config.arrival_seed);
  ClientColumns cols;
  auto n = static_cast<std::size_t>(config.clients);
  cols.arrival_sec.reserve(n);
  cols.page_index.reserve(n);
  cols.seed.reserve(n);
  cols.fade_seed.reserve(n);
  util::TimePoint t = util::TimePoint::origin();
  for (int k = 0; k < config.clients; ++k) {
    if (k > 0 && !config.mean_interarrival.is_zero()) {
      // kPoisson keeps the historical expression verbatim so existing
      // fleets replay byte-identically; the modulated processes divide
      // the mean by m(t) at the current simulation time.
      if (config.arrivals == ArrivalProcess::kPoisson) {
        t += util::Duration::seconds(
            arrivals.exponential(config.mean_interarrival.sec()));
      } else {
        t += util::Duration::seconds(arrivals.exponential(
            config.mean_interarrival.sec() /
            arrival_rate_multiplier(config, t)));
      }
    }
    auto uk = static_cast<std::uint64_t>(k);
    cols.arrival_sec.push_back(t.sec());
    // Round-robin over the corpus: the repeated-page pattern that makes
    // shared-store warming visible as K grows past the corpus size.
    cols.page_index.push_back(
        static_cast<std::uint32_t>(static_cast<std::size_t>(k) % corpus_pages));
    // Same shape as the single-client harness's grid derivation: distinct
    // deterministic seeds per slot, derived from the base seed only.
    cols.seed.push_back(config.base.seed + 1000003ULL * uk + 1);
    cols.fade_seed.push_back(config.base.testbed.fade_seed + 7919ULL * uk + 1);
  }
  return cols;
}

namespace {

/// Sum src's flow counters into dst. bytes_stored is a point-in-time
/// gauge, not a flow — callers set it from the final snapshot explicitly.
void fold_store(SharedObjectStore::Stats& dst,
                const SharedObjectStore::Stats& src) {
  dst.hits += src.hits;
  dst.misses += src.misses;
  dst.evictions += src.evictions;
  dst.bytes_saved += src.bytes_saved;
}

void fold_compute(ProxyCompute::Stats& dst, const ProxyCompute::Stats& src) {
  dst.completed += src.completed;
  dst.fetch_busy_sec += src.fetch_busy_sec;
  dst.parse_busy_sec += src.parse_busy_sec;
  dst.bundle_busy_sec += src.bundle_busy_sec;
  dst.transfer_busy_sec += src.transfer_busy_sec;
  dst.crash_killed += src.crash_killed;
  dst.last_finish = std::max(dst.last_finish, src.last_finish);
}

/// Per-epoch aggregate: everything a finished epoch contributes
/// to FleetMetrics, plus the state the boundary invariant check needs.
struct EpochAgg {
  explicit EpochAgg(const core::LogHistogram::Layout& layout)
      : olt(layout), tlt(layout), wait(layout), energy(layout),
        recovery(layout) {}

  int admitted = 0;
  int shed = 0;
  std::uint64_t sessions_ok = 0;
  core::StreamingStats olt, tlt, wait, energy, recovery;
  // Fleet fault/degradation counters (ISSUE 8 satellite 1): exact integer
  // sums over the epoch's sessions — sketches never replace these.
  std::uint64_t fault_retransmits = 0;
  std::uint64_t fault_drops = 0;
  std::uint64_t fault_deferrals = 0;
  std::uint64_t direct_fetches = 0;
  std::uint64_t degraded_sessions = 0;
  // Crash-handoff accounting (zero in parallel epochs — a crash degrades
  // the plan to one serial epoch).
  double recovery_sec_total = 0.0;
  double recovery_sec_max = 0.0;
  ShardedFleetStats fleet;
  /// The epoch's ending store tiers equal the next epoch's starting
  /// snapshot (vacuously true for the last epoch).
  bool ends_at_next_start = true;
};

/// Fold one admitted session's RunResult into the epoch aggregate.
void fold_session(EpochAgg& agg, const core::RunResult& r, double wait_sec) {
  agg.olt.add(r.olt.sec() + wait_sec);
  agg.tlt.add(r.tlt.sec() + wait_sec);
  agg.wait.add(wait_sec);
  agg.energy.add(r.radio.total.j());
  if (r.ok) ++agg.sessions_ok;
  agg.fault_retransmits += r.retransmits;
  agg.fault_drops += r.fault_drops;
  agg.fault_deferrals += r.fault_deferrals;
  agg.direct_fetches += r.direct_fetches;
  if (r.degraded) ++agg.degraded_sessions;
}

/// Fold the macro timeline's handoff outputs into the epoch aggregate
/// (admitted sessions only — a shed client never held proxy work).
void fold_handoffs(EpochAgg& agg, const MacroOut& out) {
  for (std::size_t i = 0; i < out.handoffs.size(); ++i) {
    if (out.handoffs[i] == 0 || out.shed[i] != 0) continue;
    agg.recovery.add(out.recovery_sec[i]);
    agg.recovery_sec_total += out.recovery_sec[i];
    agg.recovery_sec_max = std::max(agg.recovery_sec_max, out.recovery_sec[i]);
  }
}

/// Clients per parse-cache sweep; also the block a fanned-out epoch hands
/// to the parallel runner at once.
constexpr std::size_t kSweepEvery = 256;

/// The sink record for global client i (epoch-local slot j): the numbers
/// the folds count, kept per client. `session` is null for a shed client.
FleetClientResult client_result(const ClientColumns& cols, std::size_t i,
                                const MacroOut& out, std::size_t j,
                                core::RunResult* session) {
  FleetClientResult r;
  r.client = static_cast<int>(i);
  r.page_index = cols.page_index[i];
  r.arrival = util::TimePoint::at_seconds(cols.arrival_sec[i]);
  r.shed = out.shed[j] != 0;
  if (session == nullptr) return r;
  r.queue_wait = util::Duration::seconds(out.max_wait_sec[j]);
  r.proxy_done = util::TimePoint::at_seconds(out.done_sec[j]);
  r.session = std::move(*session);
  // Fleet-adjusted timeline: the contention the session sim cannot see is
  // exactly the time this client's work sat waiting at the proxy.
  r.olt = r.session.olt + r.queue_wait;
  r.tlt = r.session.tlt + r.queue_wait;
  // Crash-handoff accounting.
  r.handoffs = out.handoffs[j];
  r.recovery = util::Duration::seconds(out.recovery_sec[j]);
  r.redo_sec = out.redo_sec[j];
  r.redo_bytes = out.redo_bytes[j];
  return r;
}

/// Simulate one epoch on the calling thread: the macro timeline from
/// `start` (null = cold tiers), its ending tiers compared with `next` (the
/// next epoch's start; null for the last), then every admitted micro-sim in
/// client order, `jobs` at a time. Each RunResult is folded as soon as its
/// batch completes and then dropped, or moved into `sink` (indexed by
/// global client id) when the caller keeps per-client results. At width 1 a
/// session's result is gone before the next session runs.
EpochAgg run_epoch(const std::vector<const web::WebPage*>& corpus,
                   const ClientColumns& cols, EpochPlan::Epoch epoch,
                   const ShardSnapshot* start, const ShardSnapshot* next,
                   const FleetConfig& config, int jobs,
                   FleetClientResult* sink) {
  EpochAgg agg(config.sketch);
  const std::size_t n = epoch.end - epoch.begin;

  // The macro scheduler heap bumps out of the epoch's arena; micro-runs
  // install per-run arenas of their own inside ExperimentRunner::run.
  core::Arena arena;
  core::ArenaScope scope(arena);
  sim::Scheduler sched;
  ShardedFleet fleet(sched, config, start);

  MacroColumns mc;
  mc.arrival_sec =
      std::span<const double>(cols.arrival_sec).subspan(epoch.begin, n);
  mc.page_index =
      std::span<const std::uint32_t>(cols.page_index).subspan(epoch.begin, n);
  mc.base = epoch.begin;  // global client identity survives partitioning
  MacroOut out(n);
  fleet.run(corpus, mc, out);
  agg.fleet = fleet.stats();
  if (next != nullptr) agg.ends_at_next_start = fleet.snapshot_equal(*next);

  core::ParallelRunner runner(jobs);
  const std::size_t width = runner.jobs() == 1 ? 1 : kSweepEvery;
  std::vector<std::size_t> admitted;
  for (std::size_t b = 0; b < n; b += kSweepEvery) {
    admitted.clear();
    for (std::size_t j = b; j < std::min(n, b + kSweepEvery); ++j) {
      if (out.shed[j] == 0) {
        admitted.push_back(j);
        continue;
      }
      ++agg.shed;
      if (sink != nullptr) {
        sink[epoch.begin + j] =
            client_result(cols, epoch.begin + j, out, j, nullptr);
      }
    }
    agg.admitted += static_cast<int>(admitted.size());
    for (std::size_t s = 0; s < admitted.size(); s += width) {
      std::vector<core::RunResult> results(
          std::min(width, admitted.size() - s));
      runner.for_each_index(results.size(), [&](std::size_t t) {
        const std::size_t i = epoch.begin + admitted[s + t];
        core::RunConfig cfg = config.base;
        cfg.seed = cols.seed[i];
        cfg.testbed.fade_seed = cols.fade_seed[i];
        results[t] = core::ExperimentRunner::run(
            config.scheme, *corpus[cols.page_index[i]], cfg);
      });
      for (std::size_t t = 0; t < results.size(); ++t) {
        const std::size_t j = admitted[s + t];
        fold_session(agg, results[t], out.max_wait_sec[j]);
        if (sink != nullptr) {
          sink[epoch.begin + j] =
              client_result(cols, epoch.begin + j, out, j, &results[t]);
        }
      }
    }
    // Per-session content (bundle-unpacked objects) pins parse-cache
    // entries that can never hit again; without this sweep the cache
    // footprint grows linearly in K and memory is no longer bounded.
    // Corpus artifacts survive (their owners still pin them), so
    // warm-cache behavior is unchanged.
    web::ParseCache::instance().sweep_transient();
  }
  fold_handoffs(agg, out);
  return agg;
}

/// Fold one epoch into the metrics. Called in epoch-index order on the
/// main thread, so every sum (integer and double) has one fixed fold
/// order and the result is bitwise independent of --jobs.
void fold_epoch(FleetMetrics& m, const EpochAgg& agg) {
  m.admitted += agg.admitted;
  m.shed += agg.shed;
  m.sessions_ok += agg.sessions_ok;
  m.olt_stats.merge(agg.olt);
  m.tlt_stats.merge(agg.tlt);
  m.wait_stats.merge(agg.wait);
  m.energy_stats.merge(agg.energy);
  m.recovery_stats.merge(agg.recovery);
  fold_store(m.store, agg.fleet.l1_total());
  for (std::size_t s = 0; s < agg.fleet.l1.size() && s < m.l1_shards.size();
       ++s) {
    fold_store(m.l1_shards[s], agg.fleet.l1[s]);
  }
  fold_store(m.l2, agg.fleet.l2);
  fold_compute(m.compute, agg.fleet.compute);
  m.crash_handoffs += agg.fleet.crash_handoffs;
  m.crash_killed_tasks += agg.fleet.crash_killed_tasks;
  m.redo_sec_total += agg.fleet.redo_sec_total;
  m.redo_bytes_total += agg.fleet.redo_bytes_total;
  m.recovery_sec_total += agg.recovery_sec_total;
  m.recovery_sec_max = std::max(m.recovery_sec_max, agg.recovery_sec_max);
  m.fault_retransmits += agg.fault_retransmits;
  m.fault_drops += agg.fault_drops;
  m.fault_deferrals += agg.fault_deferrals;
  m.direct_fetches += agg.direct_fetches;
  m.degraded_sessions += agg.degraded_sessions;
}

/// Stamp the resident-bytes gauges from the run's final store state.
void stamp_resident_bytes(FleetMetrics& m, const ShardedFleetStats& last) {
  m.store.bytes_stored = last.l1_total().bytes_stored;
  for (std::size_t s = 0; s < last.l1.size() && s < m.l1_shards.size(); ++s) {
    m.l1_shards[s].bytes_stored = last.l1[s].bytes_stored;
  }
  m.l2.bytes_stored = last.l2.bytes_stored;
}

ShardSnapshot fork_snapshot(const ShardSnapshot& snap) {
  ShardSnapshot copy;
  copy.l1.reserve(snap.l1.size());
  for (const SharedObjectStore& l1 : snap.l1) {
    copy.l1.push_back(l1.fork_contents());
  }
  copy.l2 = snap.l2.fork_contents();
  return copy;
}

}  // namespace

FleetMetrics run_fleet(const std::vector<const web::WebPage*>& corpus,
                       const FleetConfig& config) {
  const ClientColumns cols = derive_client_columns(config, corpus.size());
  const EpochPlan plan = plan_epochs(corpus, cols, config);
  const std::size_t epochs = plan.epochs.size();

  FleetMetrics m;
  m.streaming = config.streaming;
  m.shards = config.shards;
  if (config.shards > 1) {
    m.l1_shards.resize(static_cast<std::size_t>(config.shards));
  }
  m.epochs = static_cast<int>(epochs);
  m.epoch_parallel = epochs > 1;
  m.epoch_degrade_reason = plan.degrade_reason;
  m.olt_stats = core::StreamingStats(config.sketch);
  m.tlt_stats = core::StreamingStats(config.sketch);
  m.wait_stats = core::StreamingStats(config.sketch);
  m.energy_stats = core::StreamingStats(config.sketch);
  m.recovery_stats = core::StreamingStats(config.sketch);
  if (!config.streaming) m.clients.resize(cols.size());
  FleetClientResult* sink = config.streaming ? nullptr : m.clients.data();

  // Epoch 0 starts cold. A multi-epoch plan admits no shedding and no
  // crash, so the tiers' evolution is a pure function of the request
  // sequence: replaying only the routing and store requests of epochs
  // 0..n-2 yields every later epoch's starting snapshot without
  // simulating anything else.
  std::vector<ShardSnapshot> starts(epochs);
  if (epochs > 1) {
    ShardSnapshot replay = make_cold_snapshot(config);
    for (std::size_t e = 0; e + 1 < epochs; ++e) {
      replay_store_requests(corpus, cols, plan.epochs[e].begin,
                            plan.epochs[e].end, config, replay);
      starts[e + 1] = fork_snapshot(replay);
    }
  }

  // Two or more epochs spread across the runner, each running its
  // micro-sims inline; a single epoch spreads its micro-sims instead.
  std::vector<EpochAgg> aggs(epochs, EpochAgg(config.sketch));
  const int inner_jobs = epochs > 1 ? 1 : config.jobs;
  core::ParallelRunner(config.jobs).for_each_index(epochs, [&](std::size_t e) {
    aggs[e] = run_epoch(corpus, cols, plan.epochs[e],
                        e == 0 ? nullptr : &starts[e],
                        e + 1 == epochs ? nullptr : &starts[e + 1], config,
                        inner_jobs, sink);
  });

  // The non-interaction argument is checked, not assumed: every epoch's
  // pools must have drained strictly before the next epoch's first
  // arrival, and its ending tiers must be the snapshot the next epoch
  // started from. A violation is a planner bug, not a data error.
  for (std::size_t e = 0; e + 1 < epochs; ++e) {
    double next_arrival = cols.arrival_sec[plan.epochs[e + 1].begin];
    if (aggs[e].fleet.compute.completed != 0 &&
        aggs[e].fleet.compute.last_finish.sec() >= next_arrival) {
      throw std::logic_error(
          "fleet epoch invariant violated: epoch " + std::to_string(e) +
          " finished work at t=" +
          std::to_string(aggs[e].fleet.compute.last_finish.sec()) +
          " >= next epoch arrival t=" + std::to_string(next_arrival));
    }
    if (!aggs[e].ends_at_next_start) {
      throw std::logic_error(
          "fleet epoch invariant violated: epoch " + std::to_string(e) +
          " ending store tiers differ from the next epoch's snapshot");
    }
  }

  for (const EpochAgg& agg : aggs) fold_epoch(m, agg);
  stamp_resident_bytes(m, aggs.back().fleet);

  if (sink != nullptr) {
    // Exact nearest-rank percentiles over the kept per-client results.
    std::vector<double> olts, waits;
    olts.reserve(static_cast<std::size_t>(m.admitted));
    waits.reserve(static_cast<std::size_t>(m.admitted));
    for (const FleetClientResult& r : m.clients) {
      if (r.shed) continue;
      olts.push_back(r.olt.sec());
      waits.push_back(r.queue_wait.sec());
    }
    if (!olts.empty()) {
      m.olt_p50 = util::percentile(olts, 50.0);
      m.olt_p95 = util::percentile(olts, 95.0);
      m.olt_p99 = util::percentile(olts, 99.0);
      m.wait_p50 = util::percentile(waits, 50.0);
      m.wait_p95 = util::percentile(waits, 95.0);
      m.wait_p99 = util::percentile(waits, 99.0);
    }
  } else {
    m.olt_p50 = m.olt_stats.quantile(50.0);
    m.olt_p95 = m.olt_stats.quantile(95.0);
    m.olt_p99 = m.olt_stats.quantile(99.0);
    m.wait_p50 = m.wait_stats.quantile(50.0);
    m.wait_p95 = m.wait_stats.quantile(95.0);
    m.wait_p99 = m.wait_stats.quantile(99.0);
  }
  m.energy_j_total = m.energy_stats.sum();
  m.proxy_busy_sec = m.compute.busy_sec();
  m.fetch_parse_sec = m.compute.fetch_parse_sec();
  return m;
}

}  // namespace parcel::fleet

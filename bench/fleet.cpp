// parcel_figures fleet: fleet-scale serving. What happens when K clients
// hit one PARCEL proxy?
//
// Two curves, both seeded end-to-end (no wall clocks — every number here
// is simulated and bit-reproducible):
//
//  * Cache amplification — an uncontended worker pool over a repeated
//    corpus (K a multiple of the page count): the shared object store
//    must make aggregate origin-facing proxy work (fetch + parse seconds)
//    per page load strictly decrease as K grows.
//
//  * Queueing knee — a constrained pool (--workers, default 2) with a
//    bounded admission queue under a bursty arrival process: p95
//    fleet-adjusted OLT must degrade measurably as offered load passes
//    the workers, and the admission controller must shed at the top K.
//
// Every fleet run is executed at --jobs 1 and --jobs 4 and the full
// per-client results are compared bitwise; stdout and the emitted
// BENCH_fleet.json are identical for any --jobs value and across reruns
// with the same seeds.
//
// ISSUE 7 adds the streaming leg: a K=100,000 (default; --stream-clients)
// fleet through FleetConfig::streaming — sketch-folded metrics, epoch-
// parallel macro timeline — run at --jobs 1 and 4, with the two results
// compared bitwise (integer counters AND sketches AND double sums), and
// the process peak RSS checked against a ceiling that a
// materialize-everything run of the same K could not meet. Only the
// verdict of that check is reported; how fast the fleet runs is
// parcel_bench's fleet-stream workload to measure.
//
// ISSUE 8 adds the sharded-fleet legs:
//
//  * N-shards sweep — the same offered load behind a rendezvous front of
//    N = 1..--shards proxies (own L1 + pool each, shared L2): aggregate
//    L1 hit rate must fall as the corpus re-warms per shard, the L2 must
//    absorb the loss as backplane transfers, and p95 fleet OLT at the top
//    N must not exceed the single-proxy figure (capacity grew N-fold).
//
//  * Crash handoff — N=4 with a seeded mid-run shard crash + restart:
//    every session must still complete (handed-off, never lost), with
//    recovery time and redo work accounted, bitwise identical across
//    --jobs.
#include <sys/resource.h>

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench/common.hpp"
#include "fleet/fleet_runner.hpp"
#include "fleet/shard.hpp"
#include "replay/replay_store.hpp"
#include "web/generator.hpp"
#include "web/parse_cache.hpp"

namespace {

using namespace parcel;
namespace json = bench::json;

/// Process high-water resident set, in MiB (ru_maxrss is KB on Linux).
/// It includes any id run before `fleet` in the same process.
double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// A deliberately light corpus for the K=100,000 leg: the point is fleet
/// mechanics (sketch folding, epoch partitioning), not page weight, and a
/// ~100 KB / 8-object page keeps the per-session micro-simulation cheap
/// enough that six-figure K fits a CI budget.
bench::Corpus build_streaming_corpus() {
  bench::Corpus corpus;
  for (int p = 0; p < 4; ++p) {
    web::PageSpec spec;
    spec.site = "stream0" + std::to_string(p) + ".example.com";
    spec.object_count = 8;
    spec.total_bytes = util::kib(96);
    spec.extra_domains = 2;
    spec.max_js_chain_depth = 2;
    spec.seed = 7000 + static_cast<std::uint64_t>(p);
    corpus.live_pages.push_back(
        std::make_unique<web::WebPage>(web::PageGenerator::generate(spec)));
    corpus.store.record(*corpus.live_pages.back());
    corpus.replayed.push_back(
        corpus.store.find(corpus.live_pages.back()->main_url().str()));
    corpus.specs.push_back(std::move(spec));
  }
  return corpus;
}

struct LevelRow {
  int k = 0;
  fleet::FleetMetrics metrics;
};

/// Run one fleet config at jobs=1 and jobs=4; assert identity; return the
/// jobs=1 result.
fleet::FleetMetrics run_level(const std::vector<const web::WebPage*>& corpus,
                              fleet::FleetConfig cfg, bool& identical) {
  cfg.jobs = 1;
  fleet::FleetMetrics serial = fleet::run_fleet(corpus, cfg);
  cfg.jobs = 4;
  fleet::FleetMetrics parallel = fleet::run_fleet(corpus, cfg);
  if (serial != parallel) identical = false;
  return serial;
}

}  // namespace

int parcel::bench::fleet_harness(const BenchOptions& opts) {
  bench::print_header("Fleet scaling",
                      "shared-store amplification + proxy queueing knee");

  // A small repeated corpus: K cycles round-robin over these pages, so
  // every level past K = pages re-requests content the store has seen.
  constexpr int kPages = 4;
  bench::Corpus corpus = bench::build_corpus(kPages);
  const std::vector<const web::WebPage*>& pages = corpus.replayed;

  int max_clients = opts.quick ? std::min(opts.clients, 16) : opts.clients;
  std::vector<int> levels;
  for (int k = kPages; k <= max_clients; k *= 2) levels.push_back(k);
  if (levels.empty()) levels.push_back(max_clients);

  std::printf("corpus: %d pages (round-robin), scheme PARCEL(IND), "
              "arrival seed %llu, faults %s\n",
              kPages,
              static_cast<unsigned long long>(opts.arrival_seed),
              opts.faults.enabled() ? opts.faults.str().c_str() : "off");

  bool identical = true;

  // ---- Curve 1: cache amplification (uncontended pool, no admission
  // bound — isolate the store effect from queueing).
  fleet::FleetConfig amp_cfg;
  amp_cfg.scheme = core::Scheme::kParcelInd;
  amp_cfg.arrival_seed = opts.arrival_seed;
  amp_cfg.mean_interarrival = util::Duration::millis(100);
  amp_cfg.compute.workers = 8;
  amp_cfg.compute.max_queue = 0;
  amp_cfg.base = bench::replay_run_config(opts, 42);

  std::printf("\n-- cache amplification (workers=8, unbounded queue)\n");
  std::vector<LevelRow> amp;
  for (int k : levels) {
    // A fresh parse cache per level so micro-run wall costs don't leak
    // between levels (results are identical either way).
    web::ParseCache::instance().clear();
    fleet::FleetConfig cfg = amp_cfg;
    cfg.clients = k;
    LevelRow row;
    row.k = k;
    row.metrics = run_level(pages, cfg, identical);
    std::printf("  K=%-3d  fetch+parse %.3fs/load  store hit rate %.2f  "
                "bytes saved %lld\n",
                k, row.metrics.fetch_parse_sec_per_load(),
                row.metrics.store.hit_rate(),
                static_cast<long long>(row.metrics.store.bytes_saved));
    amp.push_back(std::move(row));
  }
  bool amplification_ok = true;
  for (std::size_t i = 1; i < amp.size(); ++i) {
    if (amp[i].metrics.fetch_parse_sec_per_load() >=
        amp[i - 1].metrics.fetch_parse_sec_per_load()) {
      amplification_ok = false;
    }
  }
  std::printf("  per-load proxy work strictly decreasing with K: %s\n",
              amplification_ok ? "yes" : "NO");

  // ---- Curve 2: queueing knee (constrained pool, bounded backlog, bursty
  // arrivals). Bundle assembly is priced at a slow compression-grade rate
  // so even store-warm loads keep offering real work: offered load then
  // scales with K and passes the two workers, which is the knee.
  fleet::FleetConfig knee_cfg;
  knee_cfg.scheme = core::Scheme::kParcelInd;
  knee_cfg.arrival_seed = opts.arrival_seed;
  knee_cfg.mean_interarrival = util::Duration::millis(2);
  knee_cfg.compute.workers = opts.workers;
  knee_cfg.compute.max_queue = 0;
  knee_cfg.compute.max_backlog = util::Duration::seconds(2.2);
  knee_cfg.compute.costs.bundle_bytes_per_sec = 10e6;
  knee_cfg.base = bench::replay_run_config(opts, 42);

  std::printf("\n-- queueing knee (workers=%d, max backlog %.1fs, 2 ms mean "
              "inter-arrival)\n",
              knee_cfg.compute.workers,
              knee_cfg.compute.max_backlog.sec());
  std::vector<LevelRow> knee;
  for (int k : levels) {
    web::ParseCache::instance().clear();
    fleet::FleetConfig cfg = knee_cfg;
    cfg.clients = k;
    LevelRow row;
    row.k = k;
    row.metrics = run_level(pages, cfg, identical);
    std::printf("  K=%-3d  OLT p95 %.3fs  wait p95 %.3fs  shed %.2f "
                "(%d/%d)\n",
                k, row.metrics.olt_p95, row.metrics.wait_p95,
                row.metrics.shed_rate(), row.metrics.shed,
                row.metrics.shed + row.metrics.admitted);
    knee.push_back(std::move(row));
  }
  double knee_ratio =
      knee.front().metrics.olt_p95 > 0.0
          ? knee.back().metrics.olt_p95 / knee.front().metrics.olt_p95
          : 0.0;
  bool knee_ok = knee_ratio > 1.1;
  bool shed_ok = knee.back().metrics.shed > 0;
  std::printf("  p95 OLT degradation K=%d -> K=%d: %.2fx (%s)\n",
              knee.front().k, knee.back().k, knee_ratio,
              knee_ok ? "knee visible" : "NO KNEE");
  std::printf("  admission shedding at K=%d: %s\n", knee.back().k,
              shed_ok ? "yes" : "NO");
  std::printf("\nfleet metrics bitwise-identical across jobs 1/4: %s\n",
              identical ? "yes" : "NO — DETERMINISM BROKEN");

  // ---- Leg 3: streaming fleet (ISSUE 7). K = --stream-clients sessions
  // folded into sketches as they complete (per-client results never
  // materialized), macro timeline partitioned into non-interacting epochs
  // and run epoch-parallel. Identity across --jobs is asserted on the
  // sketches and sums themselves; peak RSS is checked against a ceiling a
  // materialize-everything run of the same K could not meet.
  int stream_k =
      opts.quick ? std::min(opts.stream_clients, 2000) : opts.stream_clients;
  bench::Corpus light = build_streaming_corpus();

  fleet::FleetConfig stream_cfg;
  stream_cfg.scheme = core::Scheme::kParcelInd;
  stream_cfg.arrival_seed = opts.arrival_seed;
  stream_cfg.mean_interarrival = util::Duration::millis(200);
  stream_cfg.compute.workers = 4;
  stream_cfg.compute.max_queue = 0;
  stream_cfg.base = bench::replay_run_config(opts, 42);
  stream_cfg.streaming = true;
  stream_cfg.clients = stream_k;

  std::printf("\n-- streaming fleet (K=%d, light corpus, sketch-folded, "
              "epoch-parallel)\n",
              stream_k);
  web::ParseCache::instance().clear();
  stream_cfg.jobs = 1;
  fleet::FleetMetrics stream1 = fleet::run_fleet(light.replayed, stream_cfg);
  web::ParseCache::instance().clear();
  stream_cfg.jobs = 4;
  fleet::FleetMetrics stream4 = fleet::run_fleet(light.replayed, stream_cfg);

  bool stream_identical = stream1 == stream4 && stream1.clients.empty();
  bool stream_epochs_ok = stream1.epochs > 1 && stream1.epoch_parallel &&
                          stream1.epoch_degrade_reason.empty();
  // Ceiling for the whole-process high-water mark. Keeping the per-client
  // sink at K=100,000 would hold one RunResult (with its packet trace)
  // per session — gigabytes; streaming keeps O(epochs) merge state, so the
  // peak barely moves with K and this constant bound is the sub-linear
  // memory assertion.
  constexpr double kRssCeilingMib = 512.0;
  bool rss_ok = peak_rss_mib() < kRssCeilingMib;

  std::printf("  epochs %d  epoch-parallel %s  sessions ok %llu/%d  shed %d\n",
              stream1.epochs, stream1.epoch_parallel ? "yes" : "NO",
              static_cast<unsigned long long>(stream1.sessions_ok),
              stream1.admitted, stream1.shed);
  std::printf("  OLT p50/p95/p99 %.4f/%.4f/%.4f s  wait p95 %.4f s  "
              "energy mean %.4f J\n",
              stream1.olt_p50, stream1.olt_p95, stream1.olt_p99,
              stream1.wait_p95, stream1.energy_j_mean());
  std::printf("  quantile relative error bound: %.4f\n",
              stream1.olt_stats.histogram().relative_error_bound());
  std::printf("  peak RSS under the %.0f MiB ceiling: %s\n", kRssCeilingMib,
              rss_ok ? "yes" : "NO");
  std::printf("  streaming metrics bitwise-identical across jobs 1/4: %s\n",
              stream_identical ? "yes" : "NO — DETERMINISM BROKEN");

  // ---- Leg 4: N-shards sweep (ISSUE 8). Fixed offered load behind a
  // rendezvous front of N proxies, each with its own L1 and 2-worker
  // pool, over a shared L2. The front hashes client ids, so the same page
  // re-warms on every shard — that is the L1 hit-rate loss axis — while
  // the L2 converts those repeat misses into backplane transfers and the
  // N-fold pool capacity flattens the queueing tail.
  int shard_k = opts.quick ? 32 : 64;
  std::vector<int> shard_levels;
  for (int nshards = 1; nshards <= opts.shards; nshards *= 2) {
    shard_levels.push_back(nshards);
  }
  // --l2-cost is ms per MiB moved; the task model wants bytes/sec.
  double l2_rate = opts.l2_cost_ms_per_mib > 0.0
                       ? 1048576.0 * 1000.0 / opts.l2_cost_ms_per_mib
                       : 0.0;

  fleet::FleetConfig shard_cfg;
  shard_cfg.scheme = core::Scheme::kParcelInd;
  shard_cfg.arrival_seed = opts.arrival_seed;
  shard_cfg.mean_interarrival = util::Duration::millis(2);
  shard_cfg.compute.workers = 2;
  shard_cfg.compute.max_queue = 0;  // no shedding: completion is the bar
  shard_cfg.compute.costs.bundle_bytes_per_sec = 10e6;
  shard_cfg.compute.costs.transfer_bytes_per_sec = l2_rate;
  shard_cfg.base = bench::replay_run_config(opts, 42);
  shard_cfg.clients = shard_k;

  std::printf("\n-- N-shards sweep (K=%d, 2 workers/shard, L2 at %.1f "
              "ms/MiB)\n",
              shard_k, opts.l2_cost_ms_per_mib);
  std::vector<LevelRow> shard_rows;
  for (int nshards : shard_levels) {
    web::ParseCache::instance().clear();
    fleet::FleetConfig cfg = shard_cfg;
    cfg.shards = nshards;
    LevelRow row;
    row.k = nshards;
    row.metrics = run_level(pages, cfg, identical);
    std::printf("  N=%-2d  L1 hit rate %.3f  L2 hit rate %.3f  transfer "
                "%.3fs  OLT p95 %.3fs  wait p95 %.3fs\n",
                nshards, row.metrics.store.hit_rate(),
                row.metrics.l2.hit_rate(),
                row.metrics.compute.transfer_busy_sec, row.metrics.olt_p95,
                row.metrics.wait_p95);
    shard_rows.push_back(std::move(row));
  }
  bool l1_loss_ok = true;
  for (std::size_t i = 1; i < shard_rows.size(); ++i) {
    if (shard_rows[i].metrics.store.hit_rate() >=
        shard_rows.front().metrics.store.hit_rate()) {
      l1_loss_ok = false;
    }
  }
  bool l2_absorbs_ok =
      shard_rows.size() < 2 ||
      shard_rows.back().metrics.compute.transfer_busy_sec > 0.0;
  bool shard_tail_ok = shard_rows.back().metrics.olt_p95 <=
                       shard_rows.front().metrics.olt_p95;
  std::printf("  L1 hit rate below the single-proxy figure at every N>1: "
              "%s\n",
              l1_loss_ok ? "yes" : "NO");
  std::printf("  L2 absorbed repeat misses as transfers: %s\n",
              l2_absorbs_ok ? "yes" : "NO");
  std::printf("  p95 OLT at N=%d <= single proxy: %s\n",
              shard_rows.back().k, shard_tail_ok ? "yes" : "NO");

  // ---- Leg 5: crash handoff (ISSUE 8). N=4 with a seeded mid-run shard
  // crash and later restart: the victim's queued and in-flight sessions
  // must migrate to survivors and still complete, with recovery time and
  // redo work accounted — and the whole story bitwise identical across
  // --jobs (the handoff happens on the macro timeline, which never
  // depends on micro-run execution order).
  fleet::FleetConfig crash_cfg = shard_cfg;
  crash_cfg.shards = std::min(4, std::max(2, opts.shards));
  // Crash mid-arrival-window (K * 2 ms mean spacing), restart shortly
  // after; the seed picks the victim shard deterministically.
  double crash_at_sec = static_cast<double>(shard_k) * 0.002 * 0.5;
  crash_cfg.shard_faults.seed = 9;
  crash_cfg.shard_faults.proxy_crash_at =
      util::TimePoint::at_seconds(crash_at_sec);
  crash_cfg.shard_faults.proxy_restart_after = util::Duration::millis(50);
  int victim = fleet::ShardedFleet::crash_victim(crash_cfg);

  std::printf("\n-- crash handoff (N=%d, crash t=%.3fs victim shard %d, "
              "restart +50ms)\n",
              crash_cfg.shards, crash_at_sec, victim);
  web::ParseCache::instance().clear();
  fleet::FleetMetrics crash_m = run_level(pages, crash_cfg, identical);
  bool crash_all_complete =
      crash_m.shed == 0 && crash_m.admitted == shard_k;
  bool crash_handoff_ok = crash_m.crash_handoffs > 0 &&
                          crash_m.crash_killed_tasks > 0 &&
                          crash_m.recovery_sec_total > 0.0 &&
                          crash_m.redo_sec_total > 0.0;
  std::printf("  handoffs %llu  tasks killed %llu  redo %.3fs / %lld "
              "bytes\n",
              static_cast<unsigned long long>(crash_m.crash_handoffs),
              static_cast<unsigned long long>(crash_m.crash_killed_tasks),
              crash_m.redo_sec_total,
              static_cast<long long>(crash_m.redo_bytes_total));
  std::printf("  recovery total %.3fs  max %.3fs\n",
              crash_m.recovery_sec_total, crash_m.recovery_sec_max);
  std::printf("  all %d sessions completed after the crash: %s\n", shard_k,
              crash_all_complete ? "yes" : "NO");
  std::printf("  handoff machinery engaged (handoffs, kills, recovery, "
              "redo all nonzero): %s\n",
              crash_handoff_ok ? "yes" : "NO");

  json::Value::Array clients_levels(levels.begin(), levels.end());
  json::Value amp_json{json::Value::Object{
      {"workers", amp_cfg.compute.workers}}};
  for (const LevelRow& row : amp) {
    const fleet::FleetMetrics& m = row.metrics;
    amp_json.set("K_" + std::to_string(row.k),
                 json::Value::Object{
                     {"fetch_parse_sec_per_load", m.fetch_parse_sec_per_load()},
                     {"store_hit_rate", m.store.hit_rate()},
                     {"store_bytes_saved",
                      static_cast<double>(m.store.bytes_saved)},
                     {"admitted", m.admitted},
                     {"energy_j_mean", m.energy_j_mean()}});
  }
  amp_json.set("per_load_work_strictly_decreasing", amplification_ok);
  json::Value knee_json{json::Value::Object{
      {"workers", knee_cfg.compute.workers},
      {"max_backlog_sec", knee_cfg.compute.max_backlog.sec()}}};
  for (const LevelRow& row : knee) {
    const fleet::FleetMetrics& m = row.metrics;
    knee_json.set("K_" + std::to_string(row.k),
                  json::Value::Object{{"olt_p50", m.olt_p50},
                                      {"olt_p95", m.olt_p95},
                                      {"olt_p99", m.olt_p99},
                                      {"wait_p95", m.wait_p95},
                                      {"shed_rate", m.shed_rate()},
                                      {"admitted", m.admitted},
                                      {"shed", m.shed}});
  }
  knee_json.set("p95_olt_degradation", knee_ratio);
  knee_json.set("shed_at_max_k", shed_ok);
  json::Value stream_json{json::Value::Object{
      {"clients", stream_k},
      {"epochs", stream1.epochs},
      {"epoch_parallel", stream1.epoch_parallel},
      {"admitted", stream1.admitted},
      {"shed", stream1.shed},
      {"sessions_ok", stream1.sessions_ok},
      {"olt_p50", stream1.olt_p50},
      {"olt_p95", stream1.olt_p95},
      {"olt_p99", stream1.olt_p99},
      {"wait_p95", stream1.wait_p95},
      {"energy_j_mean", stream1.energy_j_mean()},
      {"store_hit_rate", stream1.store.hit_rate()},
      {"quantile_relative_error_bound",
       stream1.olt_stats.histogram().relative_error_bound()},
      {"identical_across_jobs", stream_identical},
      {"peak_rss_ceiling_mib", kRssCeilingMib},
      {"peak_rss_ok", rss_ok}}};
  json::Value shards_json{json::Value::Object{
      {"clients", shard_k},
      {"workers_per_shard", shard_cfg.compute.workers},
      {"l2_cost_ms_per_mib", opts.l2_cost_ms_per_mib}}};
  for (const LevelRow& row : shard_rows) {
    const fleet::FleetMetrics& m = row.metrics;
    shards_json.set("N_" + std::to_string(row.k),
                    json::Value::Object{
                        {"l1_hit_rate", m.store.hit_rate()},
                        {"l2_hit_rate", m.l2.hit_rate()},
                        {"transfer_busy_sec", m.compute.transfer_busy_sec},
                        {"olt_p95", m.olt_p95},
                        {"wait_p95", m.wait_p95},
                        {"fetch_parse_sec", m.fetch_parse_sec}});
  }
  shards_json.set("l1_hit_rate_falls_with_n", l1_loss_ok);
  shards_json.set("l2_absorbs_repeat_misses", l2_absorbs_ok);
  shards_json.set("p95_olt_not_worse_at_max_n", shard_tail_ok);
  json::Value crash_json{json::Value::Object{
      {"shards", crash_cfg.shards},
      {"victim", victim},
      {"crash_at_sec", crash_at_sec},
      {"restart_after_sec",
       crash_cfg.shard_faults.proxy_restart_after->sec()},
      {"handoffs", crash_m.crash_handoffs},
      {"tasks_killed", crash_m.crash_killed_tasks},
      {"redo_sec_total", crash_m.redo_sec_total},
      {"redo_bytes_total", static_cast<double>(crash_m.redo_bytes_total)},
      {"recovery_sec_total", crash_m.recovery_sec_total},
      {"recovery_sec_max", crash_m.recovery_sec_max},
      {"olt_p95", crash_m.olt_p95},
      {"all_sessions_completed", crash_all_complete},
      {"handoff_engaged", crash_handoff_ok}}};
  const json::Value report{json::Value::Object{
      {"corpus", json::Value::Object{{"pages", kPages},
                                     {"scheme", "PARCEL(IND)"},
                                     {"round_robin", true}}},
      {"arrival_seed", opts.arrival_seed},
      {"faults", opts.faults.enabled() ? opts.faults.str() : "off"},
      {"clients_levels", std::move(clients_levels)},
      {"amplification", std::move(amp_json)},
      {"knee", std::move(knee_json)},
      {"streaming", std::move(stream_json)},
      {"shards", std::move(shards_json)},
      {"crash_handoff", std::move(crash_json)},
      {"deterministic_across_jobs", identical},
  }};
  if (!bench::write_json("BENCH_fleet.json", report)) return 1;
  std::printf("wrote BENCH_fleet.json\n");

  return (identical && amplification_ok && knee_ok && shed_ok &&
          stream_identical && stream_epochs_ok && rss_ok && l1_loss_ok &&
          l2_absorbs_ok && shard_tail_ok && crash_all_complete &&
          crash_handoff_ok)
             ? 0
             : 1;
}

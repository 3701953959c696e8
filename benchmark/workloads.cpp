#include "workloads.hpp"

#include <sys/resource.h>
#include <time.h>

#include <cmath>
#include <map>
#include <memory>
#include <optional>
#include <thread>

#include "core/experiment.hpp"
#include "digest.hpp"
#include "fleet/epoch_plan.hpp"
#include "fleet/fleet_runner.hpp"
#include "layers.hpp"
#include "replay/replay_store.hpp"
#include "sim/fault_plan.hpp"
#include "speed_probe.hpp"
#include "stats.hpp"
#include "web/generator.hpp"
#include "web/parse_cache.hpp"

namespace parcel::perf {

// ---- Progress --------------------------------------------------------------

void Progress::start(const std::string& workload, const std::string& faults) {
  std::lock_guard<std::mutex> lock(mutex_);
  state_ = Snapshot{};
  state_.workload = workload;
  state_.faults = faults;
}

void Progress::begin_op(std::uint64_t op, const std::string& page,
                        const std::string& scheme, std::uint64_t run_seed) {
  std::lock_guard<std::mutex> lock(mutex_);
  state_.op = op;
  state_.page = page;
  state_.scheme = scheme;
  state_.run_seed = run_seed;
}

void Progress::end_op(std::uint64_t ops, bool failed) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    state_.attempted += ops;
    if (failed) state_.failed += ops;
  }
  beat();
}

void Progress::beat() {
  if (watchdog_ != nullptr) watchdog_->beat();
}

Progress::Snapshot Progress::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return state_;
}

namespace {

// Set-up is repeated and its median reported, so one slow set-up (a page
// fault storm, a noisy neighbour) does not move setup_s.
constexpr int kSetupRepeats = 5;
constexpr std::size_t kMaxFailureNotes = 5;
// Op time between two speed samples: long enough that the ~10 ms probe
// costs a few percent of the loop, short enough to follow a neighbour's
// load as it comes and goes.
constexpr double kSegmentMs = 250.0;

// Streaming fleet sizing: sessions per run_fleet call (about 1.3 s here,
// so a run holds a dozen calls, each its own speed segment), the warm-up
// fleet, and the sessions whose micro-simulations a traced run replays
// per layer. Per-session cost is the same at K=30000 within the noise
// (README.md), so the smaller K loses nothing and keeps the segments short.
constexpr int kFleetSessions = 2500;
constexpr int kFleetWarmupSessions = 500;
constexpr std::size_t kFleetMicroReplicas = 1024;

// ---- clocks and process counters ------------------------------------------

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double thread_cpu_ms() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 + static_cast<double>(ts.tv_nsec) / 1e6;
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---- inputs ----------------------------------------------------------------

/// Controlled replay (§7.2): no fading, no faults; variability by seed.
core::RunConfig replay_config(std::uint64_t seed) {
  core::RunConfig cfg;
  cfg.seed = seed;
  return cfg;
}

/// §8.4 live configuration: heterogeneous origin delays and AR(1) fading.
/// Their seeds are drawn per op (PageRun::op_config).
core::RunConfig live_config(std::uint64_t seed) {
  core::RunConfig cfg = replay_config(seed);
  cfg.testbed.heterogeneous_server_delays = true;
  cfg.testbed.fade = lte::FadeProcess::Params{};
  return cfg;
}

struct Corpus {
  std::vector<std::unique_ptr<web::WebPage>> live;
  replay::ReplayStore store;
  std::vector<const web::WebPage*> pages;  // what the ops load
};

/// Generates every spec and, when `record`, snapshots it through the
/// replay store; the ops then load the snapshots. Generation and
/// recording are timed per page into `times`.
std::unique_ptr<Corpus> build_corpus(const std::vector<web::PageSpec>& specs, bool record,
                                     LayerTimes& times, Progress& progress) {
  auto corpus = std::make_unique<Corpus>();
  for (const web::PageSpec& spec : specs) {
    const Clock::time_point t0 = Clock::now();
    corpus->live.push_back(std::make_unique<web::WebPage>(web::PageGenerator::generate(spec)));
    const Clock::time_point t1 = Clock::now();
    times.generate_ms.push_back(ms_between(t0, t1));
    const web::WebPage& page = *corpus->live.back();
    if (record) {
      corpus->store.record(page);
      times.record_ms.push_back(ms_between(t1, Clock::now()));
      corpus->pages.push_back(corpus->store.find(page.main_url().str()));
    } else {
      corpus->pages.push_back(&page);
    }
    progress.beat();
  }
  return corpus;
}

/// The light corpus of bench_fleet_scaling's streaming leg: 4 pages of
/// 8 objects and 96 KiB, so each micro-simulation is small.
std::vector<web::PageSpec> light_specs() {
  std::vector<web::PageSpec> specs;
  for (int p = 0; p < 4; ++p) {
    web::PageSpec spec;
    spec.site = "stream0" + std::to_string(p) + ".example.com";
    spec.object_count = 8;
    spec.total_bytes = util::kib(96);
    spec.extra_domains = 2;
    spec.max_js_chain_depth = 2;
    spec.seed = 7000 + static_cast<std::uint64_t>(p);
    specs.push_back(std::move(spec));
  }
  return specs;
}

// ---- checks ----------------------------------------------------------------

std::string check_run(const core::RunResult& r, core::Scheme scheme,
                      const core::RunConfig& cfg) {
  if (r.scheme != scheme) return "result carries scheme " + core::to_string(r.scheme);
  if (r.events_executed == 0) return "no events executed";
  const double joules = r.radio.total.j();
  if (!std::isfinite(joules) || joules < 0.0) {
    return "radio energy " + std::to_string(joules) + " J";
  }
  if (r.ok) {
    const double olt = r.olt.sec();
    const double tlt = r.tlt.sec();
    const double window = cfg.capture_window.sec();
    if (!(olt > 0.0 && olt <= tlt && tlt <= window)) {
      return "OLT " + std::to_string(olt) + " s, TLT " + std::to_string(tlt) +
             " s, capture window " + std::to_string(window) + " s out of order";
    }
  }
  return {};
}

std::string check_fleet(const fleet::FleetMetrics& m, int clients) {
  if (m.admitted + m.shed != clients) {
    return "admitted " + std::to_string(m.admitted) + " + shed " + std::to_string(m.shed) +
           " != K " + std::to_string(clients);
  }
  if (m.admitted == 0) return "no session admitted";
  if (m.sessions_ok > static_cast<std::uint64_t>(m.admitted)) {
    return "sessions_ok " + std::to_string(m.sessions_ok) + " > admitted " +
           std::to_string(m.admitted);
  }
  if (!(m.olt_p50 > 0.0 && m.olt_p50 <= m.olt_p95 && m.olt_p95 <= m.olt_p99)) {
    return "fleet OLT quantiles out of order";
  }
  const double joules = m.energy_j_mean();
  if (!std::isfinite(joules) || joules < 0.0) {
    return "fleet radio energy " + std::to_string(joules) + " J";
  }
  return {};
}

// ---- accumulators ----------------------------------------------------------

/// Wall and CPU time, speed-scaled (see speed_probe.hpp) and as measured.
struct Timing {
  std::vector<double> wall_ms;  // one sample per op
  double total_ms = 0.0;
  double cpu_ms = 0.0;
};

/// End-to-end accumulators over the timed ops. Times wait in an open
/// segment until the speed scale closes it with the segment's factor.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t ops = 0;  // timed ops (page loads or fleet sessions)
  Timing scaled;
  Timing raw;
  std::map<std::string, std::vector<double>> wall_by_scheme;  // raw, per op
  std::vector<double> setup_s;
  std::vector<double> setup_s_raw;
  std::vector<std::string> failures;

  void fail(std::uint64_t count, const std::string& what) {
    failed += count;
    if (failures.size() < kMaxFailureNotes) failures.push_back(what);
  }

  /// One timed call that completed `n` ops in `wall_ms`; each op's wall
  /// sample is the call's share.
  void add(double wall_ms, double cpu_ms, std::uint64_t n) {
    ops += n;
    const double sample = wall_ms / static_cast<double>(n);
    raw.wall_ms.push_back(sample);
    raw.total_ms += wall_ms;
    raw.cpu_ms += cpu_ms;
    pending_.push_back(Pending{wall_ms, cpu_ms, sample});
    pending_ms_ += wall_ms;
  }
  [[nodiscard]] double pending_ms() const { return pending_ms_; }
  void close_segment(double factor) {
    for (const Pending& p : pending_) {
      scaled.wall_ms.push_back(p.sample_ms * factor);
      scaled.total_ms += p.wall_ms * factor;
      scaled.cpu_ms += p.cpu_ms * factor;
    }
    pending_.clear();
    pending_ms_ = 0.0;
  }

 private:
  struct Pending {
    double wall_ms;
    double cpu_ms;
    double sample_ms;
  };
  std::vector<Pending> pending_;
  double pending_ms_ = 0.0;
};

/// Runs `setup` kSetupRepeats times, each bracketed by speed samples,
/// recording scaled and raw seconds.
template <typename Setup>
void time_setups(SpeedScale& scale, Tally& tally, Setup&& setup) {
  scale.start();
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    const Clock::time_point t0 = Clock::now();
    setup();
    const double s = std::chrono::duration<double>(Clock::now() - t0).count();
    tally.setup_s_raw.push_back(s);
    tally.setup_s.push_back(s * scale.close_segment());
  }
}

double per(double total, double n) { return n == 0.0 ? 0.0 : total / n; }

/// The simulated outcome over the digest window that the sim_* metrics
/// report.
struct SimOutcome {
  double olt_p50_s = 0.0;
  double olt_p99_s = 0.0;
  double radio_j_mean = 0.0;
};

/// The gated metrics are speed-scaled; each timing also appears as
/// measured, with a _raw suffix, next to the probe's median.
void fill_end_to_end(RunReport& rep, const Tally& t, const SpeedScale& scale,
                     const SimOutcome& sim) {
  std::vector<Metric>& m = rep.e2e;
  const double ops = static_cast<double>(t.ops);
  m.push_back({"setup_s", quartiles(t.setup_s).median, "s"});
  m.push_back({"ops_per_s", per(ops, t.scaled.total_ms / 1e3), "op/s"});
  m.push_back({"op_wall_ms_p50", percentile(t.scaled.wall_ms, 50.0), "ms"});
  m.push_back({"cpu_ms_per_op", per(t.scaled.cpu_ms, ops), "ms"});
  m.push_back({"peak_rss_mib", peak_rss_mib(), "MiB"});
  m.push_back({"sim_olt_s_p50", sim.olt_p50_s, "s"});
  m.push_back({"sim_olt_s_p99", sim.olt_p99_s, "s"});
  m.push_back({"sim_radio_j_mean", sim.radio_j_mean, "J"});
  if (tail_reportable(t.scaled.wall_ms.size(), 99.0)) {
    m.push_back({"op_wall_ms_p99", percentile(t.scaled.wall_ms, 99.0), "ms"});
  }
  m.push_back({"setup_s_raw", quartiles(t.setup_s_raw).median, "s"});
  m.push_back({"ops_per_s_raw", per(ops, t.raw.total_ms / 1e3), "op/s"});
  m.push_back({"op_wall_ms_p50_raw", percentile(t.raw.wall_ms, 50.0), "ms"});
  m.push_back({"cpu_ms_per_op_raw", per(t.raw.cpu_ms, ops), "ms"});
  m.push_back({"speed_probe_ms", quartiles(scale.samples()).median, "ms"});
}

/// Per-op counts (every run) and, for a traced run, the replica timings.
void fill_page_layers(RunReport& rep, const Tally& t, const OpCounts& c,
                      const LayerTimes* times) {
  std::vector<Metric>& m = rep.layers;
  const double n = c.ops;
  const double lookups = c.cache_hits + c.cache_misses;
  m.push_back({"web.parse_cache_misses_per_op", per(c.cache_misses, n), "count"});
  m.push_back({"web.parse_cache_hit_ratio", per(c.cache_hits, lookups), "1"});
  m.push_back({"web.cache_entries_end",
               static_cast<double>(web::ParseCache::instance().size()), "count"});
  m.push_back({"core.arena_bytes_per_op", per(c.arena_bytes, n), "B"});
  m.push_back({"core.arena_allocs_per_op", per(c.arena_allocs, n), "count"});
  m.push_back({"core.unfinished_load_ratio", per(c.unfinished, n), "1"});
  m.push_back({"sim.events_per_op", per(c.events, n), "count"});
  m.push_back({"net.tcp_connections_per_op", per(c.tcp_connections, n), "count"});
  m.push_back({"net.retransmits_per_op", per(c.retransmits, n), "count"});
  m.push_back({"net.fault_drops_per_op", per(c.fault_drops, n), "count"});
  m.push_back({"net.retransmit_ratio", per(c.retransmits, c.trace_records), "1"});
  m.push_back({"trace.records_per_op", per(c.trace_records, n), "count"});
  m.push_back({"lte.promotions_per_op", per(c.promotions, n), "count"});
  m.push_back({"browser.objects_per_op", per(c.objects, n), "count"});
  m.push_back({"browser.http_requests_per_op", per(c.http_requests, n), "count"});
  m.push_back({"ctrl.retunes_per_op", per(c.ctrl_retunes, n), "count"});
  for (const auto& [key, walls] : t.wall_by_scheme) {
    m.push_back({"core.run_ms_p50." + key, percentile(walls, 50.0), "ms"});
  }
  if (times == nullptr) return;
  const double k = times->ops;
  std::vector<double> all_runs;
  for (const auto& [key, walls] : t.wall_by_scheme) {
    all_runs.insert(all_runs.end(), walls.begin(), walls.end());
  }
  m.push_back({"web.scan_ms_per_op", per(times->scan_ms, k), "ms"});
  m.push_back({"web.cache_lookup_us_per_op", per(times->lookup_us, k), "us"});
  m.push_back({"web.generate_ms_per_page", mean(times->generate_ms), "ms"});
  m.push_back({"replay.record_ms_per_page", mean(times->record_ms), "ms"});
  m.push_back({"core.run_ms_p50", percentile(all_runs, 50.0), "ms"});
  if (tail_reportable(all_runs.size(), 99.0)) {
    m.push_back({"core.run_ms_p99", percentile(all_runs, 99.0), "ms"});
  }
  m.push_back({"core.testbed_us_per_op", per(times->testbed_us, k), "us"});
  m.push_back({"core.unattributed_ms_per_op", per(times->unattributed_ms, k), "ms"});
  m.push_back({"sim.ns_per_event", per(times->chain_ns, times->chain_events), "ns"});
  m.push_back({"trace.serialize_us_per_op", per(times->serialize_us, k), "us"});
  m.push_back({"trace.analyze_us_per_op", per(times->analyze_us, k), "us"});
  m.push_back({"lte.analyze_us_per_op", per(times->lte_us, k), "us"});
  m.push_back({"ctrl.on_record_ns", per(times->ctrl_ns, times->ctrl_records), "ns"});
}

/// The parse cache's end-of-round sweep, which the fleet runner also does
/// per epoch. Without it, transient per-load content (bundle-unpacked
/// objects) stays pinned and the cache grows by every load, so peak RSS
/// would track how many ops a run got through.
struct Sweeper {
  std::vector<double> ms;
  double dropped = 0;

  void run(SpanRecorder* spans, std::uint64_t round) {
    const Clock::time_point t0 = Clock::now();
    dropped += static_cast<double>(web::ParseCache::instance().sweep_transient());
    const Clock::time_point t1 = Clock::now();
    ms.push_back(ms_between(t0, t1));
    if (spans != nullptr) spans->add("web.sweep", round, SpanRecorder::kNoParent, t0, t1);
  }

  void report(RunReport& rep, double ops) const {
    rep.layers.push_back({"web.sweep_ms_per_round", mean(ms), "ms"});
    rep.layers.push_back({"web.swept_entries_per_op", per(dropped, ops), "count"});
  }
};

void fill_fleet_layers(RunReport& rep, const fleet::FleetMetrics& m0) {
  std::vector<Metric>& m = rep.layers;
  m.push_back({"fleet.l1_hit_ratio", m0.store.hit_rate(), "1"});
  m.push_back({"fleet.l2_hit_ratio", m0.l2.hit_rate(), "1"});
  m.push_back({"fleet.epochs", static_cast<double>(m0.epochs), "count"});
  m.push_back({"fleet.shed_ratio", m0.shed_rate(), "1"});
  m.push_back({"fleet.wait_p95_s", m0.wait_p95, "s"});
}

RunReport new_report(const std::string& workload, const Options& opts, bool traced) {
  RunReport rep;
  rep.workload = workload;
  rep.seed = opts.seed;
  rep.seconds = opts.seconds;
  rep.traced = traced;
  rep.hardware_threads = std::thread::hardware_concurrency();
  return rep;
}

void finish(RunReport& rep, const Tally& t, std::uint64_t digest) {
  rep.attempted = t.attempted;
  rep.failed = t.failed;
  rep.failures = t.failures;
  rep.digest = hex(digest);
  const std::uint64_t pin = pinned_digest(rep.workload, rep.seed);
  if (pin != 0) {
    rep.digest_check = pin == digest ? "match" : "mismatch";
    if (pin != digest) {
      // Some op in the window simulated something else: none can be trusted.
      rep.failed = rep.attempted;
      rep.failures.push_back("digest " + rep.digest + " differs from the pinned " + hex(pin));
    }
  }
}

// ---- page-load workloads ---------------------------------------------------

struct PageWorkload {
  const char* name;
  web::PageMix mix;
  int pages;   // corpus size, or pages per chunk when `fresh`
  bool fresh;  // a never-seen corpus per round
  std::vector<core::Scheme> schemes;
  bool live;
  const char* faults;  // sim::FaultPlan grammar; "" = fault-free
  // Non-zero: op inputs cycle through this many rounds drawn from the
  // default seed, and --seed only picks the starting round. Every load in
  // the pool is known to finish; see the livelock in README.md.
  std::uint64_t pool_rounds;
};

const PageWorkload& page_workload(const std::string& name) {
  using core::Scheme;
  // kParcel512K is left out on purpose: the fixed-size enumerators are
  // slated for replacement by a PARCEL(X) parameter.
  static const PageWorkload kPaperGrid{
      "paper-grid", web::PageMix::kAlexa34, 34, false,
      {Scheme::kDir, Scheme::kHttpProxy, Scheme::kSpdyProxy, Scheme::kCloudBrowser,
       Scheme::kParcelInd, Scheme::kParcelOnld, Scheme::kParcelAdaptive},
      false, "", 0};
  static const PageWorkload kFreshPages{
      "fresh-pages", web::PageMix::kAlexa34, 25, true,
      {Scheme::kDir, Scheme::kParcelInd}, false, "", 0};
  // Faulted loads can livelock the scheduler (see README.md): the
  // large-object mix does so often and is left out, ad-heavy pages rarely,
  // so their inputs come from a pool checked to finish.
  static const PageWorkload kLiveFaults{
      "live-faults", web::PageMix::kAdHeavy, 12, false,
      {Scheme::kDir, Scheme::kParcelInd, Scheme::kParcelAdaptive},
      true, "loss=0.02,serror=0.02", 128};
  if (name == kPaperGrid.name) return kPaperGrid;
  if (name == kFreshPages.name) return kFreshPages;
  return kLiveFaults;
}

class PageRun {
 public:
  PageRun(const PageWorkload& w, const Options& opts, Progress& progress, SpanRecorder* spans)
      : w_(w),
        opts_(opts),
        progress_(progress),
        spans_(spans),
        base_(run_config(w, w.pool_rounds != 0 ? kDefaultSeed : opts.seed)),
        per_round_(static_cast<std::uint64_t>(w.pages) * w.schemes.size()) {
    if (w.faults[0] != '\0') base_.testbed.faults = sim::FaultPlan::parse(w.faults);
  }

  RunReport run() {
    // Each op's fault seed is its run seed, which the watchdog reports.
    progress_.start(w_.name, w_.faults[0] != '\0' ? w_.faults : "off");
    time_setups(scale_, tally_, [this] { setup(); });
    timed_loop();

    RunReport rep = new_report(w_.name, opts_, spans_ != nullptr);
    const bool deterministic =
        warm_digests_agree_ && (w_.fresh || warm_digest_ == round0_.value());
    rep.determinism = deterministic ? "ok" : "mismatch";
    if (!deterministic) tally_.fail(0, "repeated inputs simulated different outcomes");
    if (!spans_) {
      fill_end_to_end(rep, tally_, scale_,
                      SimOutcome{percentile(window_olt_s_, 50.0), percentile(window_olt_s_, 99.0),
                                 mean(window_radio_j_)});
    }
    fill_page_layers(rep, tally_, counts_, spans_ ? &times_ : nullptr);
    sweep_.report(rep, counts_.ops);
    fill_fleet_layers(rep, fleet::FleetMetrics{});
    finish(rep, tally_, window_.value());
    return rep;
  }

 private:
  struct OpSlot {
    std::uint64_t round;
    std::size_t page;
    std::size_t scheme;
  };

  [[nodiscard]] OpSlot slot(std::uint64_t op) const {
    const std::uint64_t within = op % per_round_;
    const std::uint64_t n = w_.schemes.size();
    return OpSlot{op / per_round_, static_cast<std::size_t>(within / n),
                  static_cast<std::size_t>(within % n)};
  }

  static core::RunConfig run_config(const PageWorkload& w, std::uint64_t seed) {
    return w.live ? live_config(seed) : replay_config(seed);
  }

  [[nodiscard]] core::RunConfig op_config(const OpSlot& s) const {
    const std::uint64_t round =
        w_.pool_rounds == 0 ? s.round : (opts_.seed + s.round) % w_.pool_rounds;
    core::RunConfig cfg = base_;
    cfg.seed = base_.seed + 1000003ULL * round + 101ULL * s.page + 97ULL * s.scheme + 1;
    // Every op draws its own fade, origin delays and faults, so a run
    // averages over them instead of carrying one draw throughout.
    if (cfg.testbed.fade) cfg.testbed.fade_seed = cfg.seed * 7 + 3;
    if (cfg.testbed.heterogeneous_server_delays) cfg.testbed.topology_seed = cfg.seed * 31 + 7;
    if (cfg.testbed.faults.enabled()) cfg.testbed.faults.seed = cfg.seed;
    return cfg;
  }

  /// Fixed corpora and the fresh warm-up chunk are the paper corpus (seed
  /// 2014), so set-up does the same work at every seed. Fresh chunk r uses
  /// corpus seed seed+1+r: no two timed chunks of a run share a page.
  void load_corpus(std::uint64_t corpus_seed) {
    corpus_.reset();
    web::PageGenerator gen(corpus_seed);
    corpus_ = build_corpus(gen.mix_specs(w_.mix, w_.pages), !w_.fresh, times_, progress_);
    if (spans_ != nullptr && w_.fresh) {
      // Fresh pages are loaded live; the traced run still prices recording.
      replay::ReplayStore store;
      for (const auto& page : corpus_->live) {
        const Clock::time_point t0 = Clock::now();
        store.record(*page);
        times_.record_ms.push_back(ms_between(t0, Clock::now()));
      }
    }
  }

  /// One set-up: cold parse cache, corpus generation (and replay record),
  /// and a warm-up pass of round-0 ops on the paper corpus. Fresh pages
  /// then empty the cache and generate chunk 0, so every timed scan still
  /// misses.
  void setup() {
    const int span = spans_ ? spans_->open("setup", 0) : SpanRecorder::kNoParent;
    corpus_.reset();
    web::ParseCache::instance().clear();
    load_corpus(kDefaultSeed);
    warm_up();
    if (w_.fresh) {
      corpus_.reset();
      web::ParseCache::instance().clear();
      load_corpus(opts_.seed + 1);
    }
    if (spans_) spans_->close(span);
  }

  /// Runs the round-0 ops on the loaded corpus. Every set-up must
  /// simulate the same outcomes, and for a fixed corpus so must the timed
  /// round 0, which repeats these inputs.
  void warm_up() {
    Fnv1a warm;
    for (std::uint64_t op = 0; op < per_round_; ++op) {
      const OpSlot s = slot(op);
      const core::Scheme scheme = w_.schemes[s.scheme];
      const core::RunConfig cfg = op_config(s);
      const web::WebPage& page = *corpus_->pages[s.page];
      progress_.begin_op(op, page.main_url().str(), core::to_string(scheme), cfg.seed);
      const core::RunResult r = core::ExperimentRunner::run(scheme, page, cfg);
      const std::string err = check_run(r, scheme, cfg);
      ++tally_.attempted;
      if (!err.empty()) tally_.fail(1, "warm-up op " + std::to_string(op) + ": " + err);
      fold_run(warm, r);
      progress_.end_op(1, !err.empty());
    }
    if (warm_digest_ && *warm_digest_ != warm.value()) warm_digests_agree_ = false;
    warm_digest_ = warm.value();
  }

  void next_round(std::uint64_t round) {
    // A finished fresh chunk's pages go first, so the sweep can drop
    // their cache entries too.
    if (w_.fresh) corpus_.reset();
    sweep_.run(spans_, round);
    if (w_.fresh) load_corpus(opts_.seed + 1 + round);
  }

  /// Times ops for opts_.seconds, and at least until the digest window
  /// closes: at the first round boundary with enough ok PARCEL-family
  /// loads for their OLT p99 (tail_reportable).
  void timed_loop() {
    const Clock::time_point loop_start = Clock::now();
    web::ParseCache& cache = web::ParseCache::instance();
    bool in_window = true;
    for (std::uint64_t op = 0;; ++op) {
      const OpSlot s = slot(op);
      const bool round_start = s.round > 0 && s.page == 0 && s.scheme == 0;
      if (round_start && tail_reportable(window_olt_s_.size(), 99.0)) in_window = false;
      if (!in_window && ms_between(loop_start, Clock::now()) >= 1e3 * opts_.seconds) break;
      if (round_start) next_round(s.round);
      const core::Scheme scheme = w_.schemes[s.scheme];
      const web::WebPage& page = *corpus_->pages[s.page];
      const core::RunConfig cfg = op_config(s);
      progress_.begin_op(op, page.main_url().str(), core::to_string(scheme), cfg.seed);

      const web::ParseCache::Stats before = cache.stats();
      const double c0 = thread_cpu_ms();
      const Clock::time_point t0 = Clock::now();
      const core::RunResult r = core::ExperimentRunner::run(scheme, page, cfg);
      const Clock::time_point t1 = Clock::now();
      const double c1 = thread_cpu_ms();
      const web::ParseCache::Stats delta = cache_delta(before, cache.stats());

      const double wall = ms_between(t0, t1);
      ++tally_.attempted;
      tally_.add(wall, c1 - c0, 1);
      tally_.wall_by_scheme[scheme_key(scheme)].push_back(wall);
      counts_.add(r, delta);

      std::string err = check_run(r, scheme, cfg);
      if (spans_ != nullptr) {
        spans_->add(op_span_name(scheme), op, SpanRecorder::kNoParent, t0, t1);
        const std::string replica_err =
            trace_op_layers(*spans_, op, scheme, page, cfg, r, wall, delta, times_);
        if (err.empty()) err = replica_err;
      }
      if (!err.empty()) tally_.fail(1, "op " + std::to_string(op) + " (" +
                                           core::to_string(scheme) + " " +
                                           page.main_url().str() + "): " + err);
      if (op < per_round_) fold_run(round0_, r);
      if (in_window) {
        fold_run(window_, r);
        if (core::is_parcel(scheme) && r.ok) {
          window_olt_s_.push_back(r.olt.sec());
          window_radio_j_.push_back(r.radio.total.j());
        }
      }
      progress_.end_op(1, !err.empty());
      if (tally_.pending_ms() >= kSegmentMs) tally_.close_segment(scale_.close_segment());
    }
    if (tally_.pending_ms() > 0.0) tally_.close_segment(scale_.close_segment());
  }

  const PageWorkload& w_;
  const Options& opts_;
  Progress& progress_;
  SpanRecorder* spans_;
  core::RunConfig base_;
  const std::uint64_t per_round_;

  std::unique_ptr<Corpus> corpus_;
  SpeedProbe probe_;
  SpeedScale scale_{probe_};
  Tally tally_;
  OpCounts counts_;
  LayerTimes times_;
  Sweeper sweep_;
  Fnv1a round0_;
  Fnv1a window_;
  std::vector<double> window_olt_s_;  // ok PARCEL-family loads
  std::vector<double> window_radio_j_;
  std::optional<std::uint64_t> warm_digest_;
  bool warm_digests_agree_ = true;
};

// ---- fleet-stream ----------------------------------------------------------

fleet::FleetConfig fleet_config(std::uint64_t seed, std::uint64_t call, int clients) {
  fleet::FleetConfig cfg;
  cfg.clients = clients;
  cfg.scheme = core::Scheme::kParcelInd;
  cfg.arrival_seed = seed + call;
  cfg.mean_interarrival = util::Duration::millis(200);
  cfg.compute.workers = 4;
  cfg.compute.max_queue = 0;
  // The shared L2 backplane at 4 ms per MiB moved.
  cfg.compute.costs.transfer_bytes_per_sec = 1048576.0 * 1000.0 / 4.0;
  cfg.shards = 4;
  cfg.base = replay_config(seed + 7919ULL * call);
  cfg.streaming = true;
  cfg.jobs = 1;
  return cfg;
}

class FleetRun {
 public:
  FleetRun(const Options& opts, Progress& progress, SpanRecorder* spans)
      : opts_(opts), progress_(progress), spans_(spans) {}

  RunReport run() {
    progress_.start("fleet-stream", "off");
    time_setups(scale_, tally_, [this] { setup(); });
    timed_loop();
    if (spans_ != nullptr) micro_replicas();

    RunReport rep = new_report("fleet-stream", opts_, spans_ != nullptr);
    rep.determinism = warm_digests_agree_ ? "ok" : "mismatch";
    if (!warm_digests_agree_) tally_.fail(0, "repeated warm-up fleets simulated different outcomes");
    if (!spans_) fill_end_to_end(rep, tally_, scale_, replay_first_fleet());
    if (spans_ != nullptr) {
      fill_page_layers(rep, micro_tally_, counts_, &times_);
      std::vector<Metric>& m = rep.layers;
      const double micro = mean(micro_tally_.raw.wall_ms);
      m.push_back({"fleet.micro_ms_per_session", micro, "ms"});
      m.push_back({"fleet.macro_ms_per_session", mean(tally_.raw.wall_ms) - micro, "ms"});
      m.push_back({"fleet.derive_ms", mean(derive_ms_), "ms"});
      m.push_back({"fleet.plan_epochs_ms", mean(plan_ms_), "ms"});
    }
    sweep_.report(rep, static_cast<double>(tally_.ops));
    fill_fleet_layers(rep, first_);
    tally_.attempted += micro_tally_.attempted;
    tally_.failed += micro_tally_.failed;
    for (const std::string& f : micro_tally_.failures) tally_.fail(0, f);
    finish(rep, tally_, window_.value());
    return rep;
  }

 private:
  /// One set-up: cold parse cache, the light corpus, and a small fleet.
  void setup() {
    const int span = spans_ ? spans_->open("setup", 0) : SpanRecorder::kNoParent;
    corpus_.reset();
    web::ParseCache::instance().clear();
    corpus_ = build_corpus(light_specs(), true, times_, progress_);
    const fleet::FleetConfig warm = fleet_config(opts_.seed, 0, kFleetWarmupSessions);
    progress_.begin_op(0, "light corpus (4 pages)", "fleet warm-up", warm.arrival_seed);
    const fleet::FleetMetrics m = fleet::run_fleet(corpus_->pages, warm);
    const std::string err = check_fleet(m, kFleetWarmupSessions);
    tally_.attempted += kFleetWarmupSessions;
    if (!err.empty()) tally_.fail(kFleetWarmupSessions, "warm-up fleet: " + err);
    Fnv1a warm_digest;
    fold_fleet(warm_digest, m);
    if (warm_digest_ && *warm_digest_ != warm_digest.value()) warm_digests_agree_ = false;
    warm_digest_ = warm_digest.value();
    progress_.end_op(kFleetWarmupSessions, !err.empty());
    if (spans_) spans_->close(span);
  }

  void timed_loop() {
    const Clock::time_point loop_start = Clock::now();
    for (std::uint64_t call = 0;; ++call) {
      if (call > 0 && ms_between(loop_start, Clock::now()) >= 1e3 * opts_.seconds) break;
      const fleet::FleetConfig cfg = fleet_config(opts_.seed, call, kFleetSessions);
      progress_.begin_op(call * kFleetSessions, "light corpus (4 pages)",
                         "PARCEL(IND) streaming fleet", cfg.arrival_seed);
      const double c0 = thread_cpu_ms();
      const Clock::time_point t0 = Clock::now();
      const fleet::FleetMetrics m = fleet::run_fleet(corpus_->pages, cfg);
      const Clock::time_point t1 = Clock::now();
      const double c1 = thread_cpu_ms();

      tally_.attempted += kFleetSessions;
      tally_.add(ms_between(t0, t1), c1 - c0, kFleetSessions);
      const std::string err = check_fleet(m, kFleetSessions);
      if (!err.empty()) tally_.fail(kFleetSessions, "fleet call " + std::to_string(call) + ": " + err);
      if (call == 0) {
        fold_fleet(window_, m);
        first_ = m;
      }
      if (spans_ != nullptr) {
        spans_->add("fleet.run", call, SpanRecorder::kNoParent, t0, t1);
        const Clock::time_point d0 = Clock::now();
        const fleet::ClientColumns cols = fleet::derive_client_columns(cfg, corpus_->pages.size());
        const Clock::time_point d1 = Clock::now();
        const fleet::EpochPlan plan = fleet::plan_epochs(corpus_->pages, cols, cfg);
        const Clock::time_point d2 = Clock::now();
        spans_->add("fleet.derive", call, SpanRecorder::kNoParent, d0, d1);
        spans_->add("fleet.plan_epochs", call, SpanRecorder::kNoParent, d1, d2);
        derive_ms_.push_back(ms_between(d0, d1));
        plan_ms_.push_back(ms_between(d1, d2));
        if (plan.epochs.empty()) tally_.fail(0, "epoch plan is empty");
      }
      sweep_.run(spans_, call);
      tally_.close_segment(scale_.close_segment());
      progress_.end_op(kFleetSessions, !err.empty());
    }
  }

  /// The first fleet's sim_* metrics. run_fleet reports OLT quantiles from
  /// a sketch with 2.4 % bins, too coarse to move with the seed, so every
  /// session of the first fleet is replayed on its own (the page, seed and
  /// fade seed run_fleet derives) for exact session-OLT quantiles. The
  /// fleet-adjusted OLT adds each session's proxy queue wait, which the
  /// fleet reports only in sum. The replay must match the fleet's exact
  /// sums: energy, and OLT plus wait.
  SimOutcome replay_first_fleet() {
    const fleet::FleetConfig cfg = fleet_config(opts_.seed, 0, kFleetSessions);
    const fleet::ClientColumns cols = fleet::derive_client_columns(cfg, corpus_->pages.size());
    std::vector<double> olt_s;
    double olt_sum = 0.0;
    double joules = 0.0;
    for (std::size_t k = 0; k < cols.size(); ++k) {
      core::RunConfig rc = cfg.base;
      rc.seed = cols.seed[k];
      rc.testbed.fade_seed = cols.fade_seed[k];
      const web::WebPage& page = *corpus_->pages[cols.page_index[k]];
      progress_.begin_op(k, page.main_url().str(), "first-fleet replay PARCEL(IND)", rc.seed);
      const core::RunResult r = core::ExperimentRunner::run(cfg.scheme, page, rc);
      olt_s.push_back(r.olt.sec());
      olt_sum += r.olt.sec();
      joules += r.radio.total.j();
      // As run_fleet does per epoch; unswept, each session's transient
      // parse-cache entries would stay and lift peak RSS.
      web::ParseCache::instance().sweep_transient();
      progress_.beat();
    }
    const auto differs = [](double a, double b) { return std::fabs(a - b) > 1e-9 * std::fabs(b); };
    const double fleet_olt = first_.olt_stats.sum();
    const double replay_olt = olt_sum + first_.wait_stats.sum();
    if (first_.shed != 0 || differs(replay_olt, fleet_olt) ||
        differs(joules, first_.energy_stats.sum())) {
      tally_.fail(kFleetSessions, "replayed first fleet differs: OLT+wait sum " +
                                      std::to_string(replay_olt) + " s against " +
                                      std::to_string(fleet_olt) + " s, energy " +
                                      std::to_string(joules) + " J against " +
                                      std::to_string(first_.energy_stats.sum()) + " J");
    }
    return SimOutcome{percentile(olt_s, 50.0), percentile(olt_s, 99.0), first_.energy_j_mean()};
  }

  /// Replays the first sessions of call 0 one by one — the same page, seed
  /// and fade seed run_fleet derives — with every layer replica.
  void micro_replicas() {
    const fleet::FleetConfig cfg = fleet_config(opts_.seed, 0, kFleetSessions);
    const fleet::ClientColumns cols = fleet::derive_client_columns(cfg, corpus_->pages.size());
    web::ParseCache& cache = web::ParseCache::instance();
    const std::size_t n = std::min(kFleetMicroReplicas, cols.size());
    for (std::size_t k = 0; k < n; ++k) {
      core::RunConfig rc = cfg.base;
      rc.seed = cols.seed[k];
      rc.testbed.fade_seed = cols.fade_seed[k];
      const web::WebPage& page = *corpus_->pages[cols.page_index[k]];
      progress_.begin_op(k, page.main_url().str(), "micro replica PARCEL(IND)", rc.seed);
      const web::ParseCache::Stats before = cache.stats();
      const Clock::time_point t0 = Clock::now();
      const core::RunResult r = core::ExperimentRunner::run(cfg.scheme, page, rc);
      const Clock::time_point t1 = Clock::now();
      const web::ParseCache::Stats delta = cache_delta(before, cache.stats());
      const double wall = ms_between(t0, t1);
      micro_tally_.raw.wall_ms.push_back(wall);
      micro_tally_.wall_by_scheme[scheme_key(cfg.scheme)].push_back(wall);
      ++micro_tally_.attempted;
      counts_.add(r, delta);
      spans_->add(op_span_name(cfg.scheme), k, SpanRecorder::kNoParent, t0, t1);
      std::string err = check_run(r, cfg.scheme, rc);
      const std::string replica_err =
          trace_op_layers(*spans_, k, cfg.scheme, page, rc, r, wall, delta, times_);
      if (err.empty()) err = replica_err;
      if (!err.empty()) micro_tally_.fail(1, "micro replica " + std::to_string(k) + ": " + err);
      progress_.end_op(1, !err.empty());
    }
  }

  const Options& opts_;
  Progress& progress_;
  SpanRecorder* spans_;
  std::unique_ptr<Corpus> corpus_;
  SpeedProbe probe_;
  SpeedScale scale_{probe_};
  Tally tally_;
  Tally micro_tally_;
  OpCounts counts_;
  LayerTimes times_;
  Sweeper sweep_;
  std::vector<double> derive_ms_;
  std::vector<double> plan_ms_;
  fleet::FleetMetrics first_;
  Fnv1a window_;
  std::optional<std::uint64_t> warm_digest_;
  bool warm_digests_agree_ = true;
};

}  // namespace

RunReport run_workload(const Options& opts, Progress& progress, SpanRecorder* spans) {
  if (opts.workload == "fleet-stream") return FleetRun(opts, progress, spans).run();
  return PageRun(page_workload(opts.workload), opts, progress, spans).run();
}

std::uint64_t pinned_digest(const std::string& workload, std::uint64_t seed) {
  if (seed != kDefaultSeed) return 0;
  static const std::map<std::string, std::uint64_t> pins = {
      {"paper-grid", 0x9fd42c1e3c4fe0eaULL},
      {"fresh-pages", 0x582125d379e5d445ULL},
      {"live-faults", 0xaabaeb75795ca4d4ULL},
      {"fleet-stream", 0x9bed9e09457e23c1ULL},
  };
  const auto it = pins.find(workload);
  return it == pins.end() ? 0 : it->second;
}

}  // namespace parcel::perf

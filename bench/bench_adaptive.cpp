// Closed-loop adaptive bundling bench (ISSUE 10).
//
// Sweeps a deterministic signal-fade profile over the replayed corpus
// and races PARCEL-ADAPT (ctrl::BundleController retuning the bundle
// threshold mid-load from the live capture) against the fixed-size
// PARCEL(X) grid. Gates, all asserted in-process:
//
//  * the controller's mean OLT strictly beats every fixed bundle size
//    on the fade sweep;
//  * the adaptive grid is bitwise identical across jobs=1 and jobs=4,
//    including the ctrl_* telemetry;
//  * with the controller's target clamps pinned to 512K
//    (min_target == max_target) an adaptive run — controller installed,
//    tapping every burst — is byte-for-byte the fixed 512K scheme, with
//    no retune.
//
// Also reports (informational): the controller under the ad-heavy /
// SPA / large-object page mixes, and flash-crowd / diurnal fleet legs.
// Results go to stdout and BENCH_adaptive.json.
//
// --fade SPEC substitutes the canonical pulse profile; --mix NAME swaps
// the sweep corpus family; --jobs/--pages/--rounds/--quick as usual.
#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench/common.hpp"
#include "ctrl/bundle_controller.hpp"
#include "fleet/fleet_runner.hpp"

namespace {

using namespace parcel;
namespace json = bench::json;

// Canonical sweep: 4 s pulse cadence, half of each period faded to a
// quarter of the nominal bandwidth — deep enough that the optimal bundle
// size genuinely moves, fast enough that several swings land inside one
// page load.
lte::FadeSpec canonical_fade() {
  lte::FadeSpec spec;
  spec.kind = lte::FadeSpec::Kind::kPulse;
  spec.period = util::Duration::seconds(4);
  spec.duty = 0.5;
  spec.high = 1.0;
  spec.low = 0.25;
  spec.horizon = util::Duration::seconds(120);
  return spec;
}

std::string fade_str(const lte::FadeSpec& spec) {
  const char* kind = spec.kind == lte::FadeSpec::Kind::kPulse  ? "pulse"
                     : spec.kind == lte::FadeSpec::Kind::kRamp ? "ramp"
                                                               : "step";
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "%s:high=%.2f,low=%.2f,period=%.1f,duty=%.2f,at=%.1f", kind,
                spec.high, spec.low, spec.period.sec(), spec.duty,
                spec.at.sec());
  return buf;
}

// The sweep's run configuration for (page p, round r): replayed corpus
// with the fault plan stamped in, heterogeneous server delays (the
// paper's live §8.4 regime — staggered object arrival at the proxy is
// what gives bundle size an interior OLT optimum for the controller to
// track; with instant origins, smaller is always better, Fig 9a), plus
// the fade trajectory under test.
core::RunConfig sweep_config(const bench::FadeOption& fade,
                             const lte::FadeSpec& profile, std::size_t p,
                             int r) {
  core::RunConfig cfg =
      bench::replay_run_config(1 + 101ULL * p + 13ULL * static_cast<unsigned>(r));
  cfg.testbed.heterogeneous_server_delays = true;
  cfg.testbed.topology_seed = cfg.seed * 31 + 7;
  // Stretch the origin-delay spread well past the 50 ms CR tail: bundles
  // that accumulate across slow origins leave the radio idle long enough
  // to demote, so every extra bundle costs a DRX promotion — the
  // per-bundle overhead term of §6 that small fixed sizes pay and the
  // controller dodges by upsizing whenever the link is fast.
  cfg.testbed.server_delay_min = util::Duration::millis(30);
  cfg.testbed.server_delay_max = util::Duration::millis(350);
  if (fade.ar1) {
    cfg.testbed.fade = lte::FadeProcess::Params{};
    cfg.testbed.fade_seed = cfg.seed * 97 + 13;
  } else {
    cfg.testbed.fade_profile = profile;
  }
  // The controller variant the paper's §6 model motivates for OLT: the
  // per-bundle overhead is the short-DRX resume, so α' = √(promo).
  cfg.ctrl = ctrl::ControllerConfig::latency_tuned(cfg.testbed.radio.rrc);
  return cfg;
}

std::vector<core::ExperimentTask> make_tasks(core::Scheme scheme,
                                             const bench::Corpus& corpus,
                                             int rounds,
                                             const bench::FadeOption& fade,
                                             const lte::FadeSpec& profile) {
  std::vector<core::ExperimentTask> tasks;
  tasks.reserve(corpus.replayed.size() * static_cast<std::size_t>(rounds));
  for (std::size_t p = 0; p < corpus.replayed.size(); ++p) {
    for (int r = 0; r < rounds; ++r) {
      core::RunConfig cfg = sweep_config(fade, profile, p, r);
      // The proxy knows the page's byte total once its fetches resolve
      // (and exactly, in replay) — hand the controller the real B̂ so
      // the remaining-bytes taper fits each page instead of a 2 MiB
      // one-size guess.
      cfg.ctrl.page_bytes_hint = corpus.replayed[p]->total_bytes();
      tasks.push_back(core::ExperimentTask{scheme, corpus.replayed[p], cfg});
    }
  }
  return tasks;
}

double mean_olt_sec(const std::vector<core::RunResult>& results) {
  double sum = 0.0;
  for (const core::RunResult& r : results) sum += r.olt.sec();
  return results.empty() ? 0.0 : sum / static_cast<double>(results.size());
}

double mean_radio_j(const std::vector<core::RunResult>& results) {
  double sum = 0.0;
  for (const core::RunResult& r : results) sum += r.radio.total.j();
  return results.empty() ? 0.0 : sum / static_cast<double>(results.size());
}

struct GridRow {
  util::Bytes threshold = 0;
  double mean_olt = 0.0;
  double mean_j = 0.0;
};

struct MixRow {
  std::string name;
  double adaptive_olt = 0.0;
  double fixed_olt = 0.0;
  double mean_retunes = 0.0;
};

struct FleetRow {
  std::string arrivals;
  int admitted = 0;
  int shed = 0;
  double olt_p50 = 0.0;
  double olt_p95 = 0.0;
  double wait_p95 = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  bench::BenchOptions opts = bench::parse_options(argc, argv);
  bench::print_header("Adaptive bundling",
                      "closed-loop b* control under signal dynamics vs the "
                      "fixed PARCEL(X) grid");

  const lte::FadeSpec profile = opts.fade.profile.value_or(canonical_fade());
  const std::string fade_name =
      opts.fade.ar1 ? std::string("ar1") : fade_str(profile);
  const int pages = opts.quick ? 4 : std::min(opts.pages, 8);
  const int rounds = opts.quick ? 1 : std::min(opts.rounds, 3);
  std::printf("fade: %s   mix: %s   (%d pages x %d rounds)\n",
              fade_name.c_str(), std::string(web::to_string(opts.mix)).c_str(),
              pages, rounds);

  bench::Corpus corpus = bench::build_corpus(pages, 2014, opts.mix);

  // ---- fixed-size grid ---------------------------------------------------
  const std::vector<util::Bytes> grid = {util::kib(128), util::kib(256),
                                         util::kib(512), util::mib(1),
                                         util::mib(2)};
  std::vector<GridRow> grid_rows;
  for (util::Bytes b : grid) {
    // PARCEL-ADAPT with its target clamps pinned to b is byte-for-byte the
    // fixed PARCEL(b) (the byte pin below and test_ctrl check this).
    std::vector<core::ExperimentTask> tasks =
        make_tasks(core::Scheme::kParcelAdaptive, corpus, rounds, opts.fade,
                   profile);
    for (core::ExperimentTask& task : tasks) {
      task.config.ctrl.min_target = task.config.ctrl.max_target = b;
    }
    std::vector<core::RunResult> results =
        core::run_experiments(tasks, opts.jobs);
    grid_rows.push_back(GridRow{b, mean_olt_sec(results), mean_radio_j(results)});
  }

  // ---- adaptive, with the in-bench jobs=1 vs jobs=4 identity gate --------
  std::vector<core::ExperimentTask> adaptive_tasks = make_tasks(
      core::Scheme::kParcelAdaptive, corpus, rounds, opts.fade, profile);
  std::vector<core::RunResult> serial = core::run_experiments(adaptive_tasks, 1);
  std::vector<core::RunResult> fanned = core::run_experiments(adaptive_tasks, 4);
  const bool jobs_identical = bench::same_results(serial, fanned);

  const double adaptive_olt = mean_olt_sec(serial);
  const double adaptive_j = mean_radio_j(serial);
  double retunes_sum = 0.0;
  for (const core::RunResult& r : serial) {
    retunes_sum += static_cast<double>(r.ctrl_retunes);
  }
  const double mean_retunes =
      serial.empty() ? 0.0 : retunes_sum / static_cast<double>(serial.size());

  std::printf("\nper-run controller telemetry (jobs=1 grid):\n");
  for (std::size_t i = 0; i < serial.size(); ++i) {
    const core::RunResult& r = serial[i];
    std::printf(
        "  run %2zu: olt=%7.3fs retunes=%llu s_hat=%lld bps rtt_hat=%lld us "
        "thr_end=%lldK\n",
        i, r.olt.sec(), static_cast<unsigned long long>(r.ctrl_retunes),
        static_cast<long long>(r.ctrl_goodput_bps),
        static_cast<long long>(r.ctrl_rtt_us),
        static_cast<long long>(r.ctrl_threshold / 1024));
  }

  std::printf("\n%-14s %12s %12s\n", "scheme", "mean OLT (s)", "radio (J)");
  for (const GridRow& row : grid_rows) {
    std::printf("PARCEL(%4lldK)  %12.3f %12.2f\n",
                static_cast<long long>(row.threshold / 1024), row.mean_olt,
                row.mean_j);
  }
  std::printf("%-14s %12.3f %12.2f   (%.1f retunes/run)\n", "PARCEL-ADAPT",
              adaptive_olt, adaptive_j, mean_retunes);

  bool beats_every_fixed = true;
  for (const GridRow& row : grid_rows) {
    beats_every_fixed = beats_every_fixed && adaptive_olt < row.mean_olt;
  }
  std::printf("beats every fixed size: %s\n", beats_every_fixed ? "yes" : "NO");
  std::printf("jobs=1 == jobs=4:       %s\n",
              jobs_identical ? "yes" : "NO — DETERMINISM BROKEN");

  // ---- pinned-clamp byte pin --------------------------------------------
  // With its target clamped to exactly 512K the controller is installed
  // and taps every burst but can never move the threshold, so the run
  // must be byte-for-byte the fixed 512K scheme: same trace, no retune.
  bool pinned_identical = true;
  {
    core::RunConfig cfg = sweep_config(opts.fade, profile, 0, 0);
    cfg.ctrl.min_target = cfg.ctrl.max_target = util::kib(512);
    core::RunResult pinned = core::ExperimentRunner::run(
        core::Scheme::kParcelAdaptive, *corpus.replayed[0], cfg);
    core::RunResult fixed = core::ExperimentRunner::run(
        core::Scheme::kParcel512K, *corpus.replayed[0], cfg);
    pinned_identical = pinned.trace.serialize() == fixed.trace.serialize() &&
                       pinned.ctrl_retunes == 0;
  }
  std::printf("pinned ctrl == fixed 512K: %s\n",
              pinned_identical ? "yes (byte-identical trace)"
                               : "NO — PINNED CONTROLLER MOVED THE RUN");

  // ---- page-mix legs (informational) -------------------------------------
  std::vector<MixRow> mix_rows;
  for (web::PageMix mix : {web::PageMix::kAdHeavy, web::PageMix::kSpa,
                           web::PageMix::kLargeObject}) {
    bench::Corpus mixed = bench::build_corpus(opts.quick ? 3 : 4, 2014, mix);
    std::vector<core::RunResult> fixed = core::run_experiments(
        make_tasks(core::Scheme::kParcel512K, mixed, 1, opts.fade, profile),
        opts.jobs);
    std::vector<core::RunResult> adapt = core::run_experiments(
        make_tasks(core::Scheme::kParcelAdaptive, mixed, 1, opts.fade, profile),
        opts.jobs);
    double retunes = 0.0;
    for (const core::RunResult& r : adapt) {
      retunes += static_cast<double>(r.ctrl_retunes);
    }
    mix_rows.push_back(MixRow{std::string(web::to_string(mix)),
                              mean_olt_sec(adapt), mean_olt_sec(fixed),
                              adapt.empty() ? 0.0
                                            : retunes / static_cast<double>(
                                                            adapt.size())});
  }
  std::printf("\n%-14s %14s %14s %10s\n", "page mix", "ADAPT OLT (s)",
              "512K OLT (s)", "retunes");
  for (const MixRow& row : mix_rows) {
    std::printf("%-14s %14.3f %14.3f %10.1f\n", row.name.c_str(),
                row.adaptive_olt, row.fixed_olt, row.mean_retunes);
  }

  // ---- fleet legs: flash-crowd and diurnal arrivals (informational) ------
  std::vector<FleetRow> fleet_rows;
  for (fleet::ArrivalProcess arrivals :
       {fleet::ArrivalProcess::kFlashCrowd, fleet::ArrivalProcess::kDiurnal}) {
    fleet::FleetConfig fc;
    fc.clients = opts.quick ? 12 : opts.clients;
    fc.scheme = core::Scheme::kParcelAdaptive;
    fc.arrivals = arrivals;
    fc.arrival_seed = opts.arrival_seed;
    fc.jobs = opts.jobs;
    fc.base = sweep_config(opts.fade, profile, 0, 0);
    fleet::FleetMetrics m = fleet::run_fleet(corpus.replayed, fc);
    fleet_rows.push_back(FleetRow{std::string(fleet::to_string(arrivals)),
                                  m.admitted, m.shed, m.olt_p50, m.olt_p95,
                                  m.wait_p95});
  }
  std::printf("\n%-12s %9s %6s %11s %11s %11s\n", "arrivals", "admitted",
              "shed", "OLT p50", "OLT p95", "wait p95");
  for (const FleetRow& row : fleet_rows) {
    std::printf("%-12s %9d %6d %11.3f %11.3f %11.3f\n", row.arrivals.c_str(),
                row.admitted, row.shed, row.olt_p50, row.olt_p95, row.wait_p95);
  }

  // ---- JSON --------------------------------------------------------------
  json::Value::Array grid_json, mix_json, fleet_json;
  for (const GridRow& row : grid_rows) {
    grid_json.push_back(json::Value::Object{
        {"threshold", static_cast<double>(row.threshold)},
        {"mean_olt_sec", row.mean_olt},
        {"mean_radio_j", row.mean_j}});
  }
  for (const MixRow& row : mix_rows) {
    mix_json.push_back(json::Value::Object{
        {"mix", row.name},
        {"adaptive_olt_sec", row.adaptive_olt},
        {"fixed_512k_olt_sec", row.fixed_olt},
        {"mean_retunes", row.mean_retunes}});
  }
  for (const FleetRow& row : fleet_rows) {
    fleet_json.push_back(json::Value::Object{
        {"arrivals", row.arrivals},
        {"admitted", row.admitted},
        {"shed", row.shed},
        {"olt_p50_sec", row.olt_p50},
        {"olt_p95_sec", row.olt_p95},
        {"wait_p95_sec", row.wait_p95}});
  }
  const json::Value report{json::Value::Object{
      {"fade", fade_name},
      {"mix", std::string(web::to_string(opts.mix))},
      {"pages", pages},
      {"rounds", rounds},
      {"grid", std::move(grid_json)},
      {"adaptive", json::Value::Object{{"mean_olt_sec", adaptive_olt},
                                       {"mean_radio_j", adaptive_j},
                                       {"mean_retunes", mean_retunes}}},
      {"mixes", std::move(mix_json)},
      {"fleet", std::move(fleet_json)},
      {"beats_every_fixed", beats_every_fixed},
      {"deterministic_across_jobs", jobs_identical},
      {"pinned_ctrl_byte_identical", pinned_identical},
  }};
  if (!bench::write_json("BENCH_adaptive.json", report)) return 1;
  std::printf("\nwrote BENCH_adaptive.json\n");

  return (beats_every_fixed && jobs_identical && pinned_identical) ? 0 : 1;
}

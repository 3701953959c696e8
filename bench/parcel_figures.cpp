// parcel_figures: the paper's evaluation and the harnesses beyond it as
// one binary. Each paper entry reproduces one figure, table or summary
// (§2.1, §6, §7-§8: Table 1, Figs 3 and 6a-11, the headline numbers) or
// one experiment beyond the paper (ablations, a browsing session), and
// prints the measured rows next to the paper's values. Each harness entry
// (adaptive, faults, fleet, parse-cache) also writes a BENCH_*.json into
// the working directory and gates its own invariants.
//
// Usage: parcel_figures [bench flags] ID... | all
//   The bench flags are bench::parse_options' (--pages N, --rounds N,
//   --jobs N, --quick, --faults SPEC, ...). The ids run in the order
//   given; `all` runs every paper entry in table order. Exits 1 if any
//   harness gate failed; an unknown id is a usage error (exit 2).
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <initializer_list>
#include <iterator>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bench/common.hpp"
#include "browser/cloud_browser.hpp"
#include "browser/dir_browser.hpp"
#include "core/analysis.hpp"
#include "core/session.hpp"
#include "core/testbed.hpp"
#include "lte/energy.hpp"
#include "trace/trace_analyzer.hpp"
#include "util/strings.hpp"

namespace {

using namespace parcel;
using bench::BenchOptions;

// ------------------------------------------------------------- helpers

double pct(int n, std::size_t total) {
  return 100.0 * n / static_cast<double>(total);
}

void print_cdf(const char* label, const std::vector<double>& samples) {
  util::Cdf cdf(samples);
  std::printf("-- CDF: %s  (n=%zu, p10=%.2f p50=%.2f p90=%.2f max=%.2f)\n",
              label, cdf.size(), cdf.quantile(0.10), cdf.quantile(0.50),
              cdf.quantile(0.90), cdf.sorted_samples().back());
  std::printf("%s", cdf.to_table(16).c_str());
}

/// `schemes`' per-page medians over `pages` on `base`, with --rounds
/// runs per page fanned over --jobs workers.
std::vector<core::PageMedians> grid(
    const BenchOptions& opts, const std::vector<const web::WebPage*>& pages,
    const std::vector<core::Scheme>& schemes, const core::RunConfig& base,
    const core::GridSeeds& seeds = {}) {
  return core::run_grid(pages, schemes, opts.rounds, base, seeds, opts.jobs);
}

/// DIR and PARCEL(IND) per-page medians over the --pages corpus on the
/// replay configuration seeded `seed`.
struct DirVsInd {
  core::PageMedians dir, ind;
};

DirVsInd dir_vs_ind(const BenchOptions& opts, std::uint64_t seed) {
  const bench::Corpus corpus = bench::build_corpus(opts.pages);
  std::vector<core::PageMedians> m =
      grid(opts, corpus.replayed,
           {core::Scheme::kDir, core::Scheme::kParcelInd},
           bench::replay_run_config(opts, seed));
  return {std::move(m[0]), std::move(m[1])};
}

/// DIR on the paper's handset (Galaxy S3 parse and JS speed).
browser::DirConfig handset_dir_config() {
  const lte::DeviceProfile device = lte::DeviceProfile::galaxy_s3();
  browser::DirConfig cfg;
  cfg.engine.parse_bytes_per_sec = device.parse_bytes_per_sec;
  cfg.engine.js_units_per_sec = device.js_units_per_sec;
  return cfg;
}

/// One client (a ParcelSession or a DirBrowser) on a private testbed that
/// hosts `pages`, driven by hand. The figures that use it set proxy and
/// engine configs that ExperimentRunner::run would replace, or read the
/// client's internals (proxy ledger, bundle count, fallbacks).
template <class Client>
struct Rig {
  template <class... ClientArgs>
  Rig(const core::TestbedConfig& config,
      std::initializer_list<const web::WebPage*> pages, ClientArgs&&... args)
      : testbed(config) {
    for (const web::WebPage* page : pages) testbed.host_page(*page);
    client.emplace(testbed.network(), std::forward<ClientArgs>(args)...);
  }
  // The client's callbacks hold `this`.
  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;

  /// Loads `url` and runs the clock to `until_sec`; `onload` and
  /// `complete` then hold the times this load reached them, if it did.
  void load(const net::Url& url, double until_sec) {
    onload.reset();
    complete.reset();
    client->load(url, {[this](util::TimePoint t) { onload = t.sec(); },
                       [this](util::TimePoint t) { complete = t.sec(); }});
    testbed.scheduler().run_until(util::TimePoint::at_seconds(until_sec));
  }

  /// Radio energy of everything captured so far, decay tail included.
  double radio_j() {
    return lte::EnergyAnalyzer(testbed.config().radio.rrc)
        .analyze(testbed.client_trace(), true)
        .total.j();
  }

  core::Testbed testbed;
  std::optional<double> onload, complete;
  // Last, so it is destroyed before the testbed and times it refers to.
  std::optional<Client> client;
};

/// Fig 3's wired baseline: replace the LTE access with a fast fixed link
/// (no promotions, negligible tail).
core::TestbedConfig wired_testbed_config() {
  core::TestbedConfig cfg;
  cfg.radio.uplink_rate = util::BitRate::mbps(40);
  cfg.radio.downlink_rate = util::BitRate::mbps(40);
  cfg.radio.one_way_delay = util::Duration::millis(5);
  // Fixed access: no promotion latencies, no DRX machinery to speak of.
  cfg.radio.rrc.promo_from_idle = util::Duration::zero();
  cfg.radio.rrc.promo_from_short_drx = util::Duration::zero();
  cfg.radio.rrc.promo_from_long_drx = util::Duration::zero();
  return cfg;
}

/// Figs 10 and 11 (§8.4, live mode): DIR and PARCEL(512K) per-page
/// medians against the *unnormalized* --pages corpus (fetchRand active),
/// --rounds runs per page, on the live configuration seeded `seed`.
std::vector<core::PageMedians> live_grid(const BenchOptions& opts,
                                         std::uint64_t seed,
                                         const core::GridSeeds& seeds) {
  const bench::Corpus corpus = bench::build_corpus(opts.pages);
  std::vector<const web::WebPage*> pages;
  for (const auto& page : corpus.live_pages) pages.push_back(page.get());
  // §8.4 live configuration: heterogeneous server delays + signal fading.
  core::RunConfig cfg = bench::replay_run_config(opts, seed);
  cfg.testbed.heterogeneous_server_delays = true;
  cfg.testbed.topology_seed = seed * 31 + 7;
  cfg.testbed.fade = lte::FadeProcess::Params{};
  return grid(opts, pages, {core::Scheme::kDir, core::Scheme::kParcel512K},
              cfg, seeds);
}

// ------------------------------------------------------------- figures

// §2.1 / §7.2 corpus statistics: validates that the synthetic Alexa-like
// corpus matches what the paper reports about its evaluation pages.
void corpus_stats(const BenchOptions& opts) {
  bench::print_header("Corpus statistics (paper §2.1, §7.2)",
                      "synthetic Alexa-like corpus vs published stats");

  // Large sample for distribution statistics.
  int stat_pages = opts.quick ? 60 : 300;
  web::PageGenerator gen(2014);
  auto specs = gen.corpus_specs(stat_pages);

  int pages_100_objs = 0;
  int pages_20_js = 0;
  std::vector<double> page_sizes, object_sizes;
  std::size_t post_onload_total = 0, objects_total = 0;
  for (const auto& spec : specs) {
    web::WebPage page = web::PageGenerator::generate(spec);
    if (page.object_count() >= 100) ++pages_100_objs;
    std::size_t js = page.count_of(web::ObjectType::kJs) +
                     page.count_of(web::ObjectType::kJsAsync);
    if (js >= 20) ++pages_20_js;
    page_sizes.push_back(static_cast<double>(page.total_bytes()));
    for (const web::WebObject* obj : page.objects()) {
      object_sizes.push_back(static_cast<double>(obj->size));
      ++objects_total;
      if (obj->post_onload) ++post_onload_total;
    }
  }

  std::printf("pages sampled: %d, objects: %zu\n", stat_pages, objects_total);
  std::printf("pages with >=100 objects: %.1f%%   (paper: 40%%)\n",
              pct(pages_100_objs, stat_pages));
  std::printf("pages with >=20 JS files: %.1f%%   (paper: 40%% of pages)\n",
              pct(pages_20_js, stat_pages));
  std::printf("page size   p50=%s  max=%s     (paper: median 1.04 MB, max ~5 MB)\n",
              util::format_bytes((long long)util::median(page_sizes)).c_str(),
              util::format_bytes((long long)util::percentile(page_sizes, 100)).c_str());
  std::printf("object size p50=%s p80=%s p95=%s (paper: 18 / 107 / 386 KB)\n",
              util::format_bytes((long long)util::percentile(object_sizes, 50)).c_str(),
              util::format_bytes((long long)util::percentile(object_sizes, 80)).c_str(),
              util::format_bytes((long long)util::percentile(object_sizes, 95)).c_str());
  std::printf("post-onload object share: %.1f%% of objects\n",
              100.0 * static_cast<double>(post_onload_total) / static_cast<double>(objects_total));

  // §7.3 variability: coefficient of variation of object count across
  // back-to-back "live" loads, before replay normalization freezes it.
  int sites_high_cov = 0;
  const int cov_sites = 20;
  for (int s = 0; s < cov_sites; ++s) {
    std::vector<double> counts;
    for (int v = 0; v < 10; ++v) {
      web::PageSpec variant = web::PageGenerator::live_variant(specs[s], v);
      counts.push_back(static_cast<double>(
          web::PageGenerator::generate(variant).object_count()));
    }
    if (util::coeff_of_variation(counts) >= 0.5) ++sites_high_cov;
  }
  std::printf("sites with object-count CoV >= 0.5 across 10 live reloads: "
              "%.0f%% (paper: 50%%; replay freezes this)\n",
              pct(sites_high_cov, cov_sites));
}

// Fig 3: CDF of median OLT for the corpus downloaded by a traditional
// browser over LTE vs over a wired network.
void fig3(const BenchOptions& opts) {
  bench::print_header("Figure 3", "median OLT CDF: cellular vs wired (DIR)");

  bench::Corpus corpus = bench::build_corpus(opts.pages);

  core::RunConfig cellular = bench::replay_run_config(opts, 1);
  core::RunConfig wired = cellular;
  wired.testbed = wired_testbed_config();

  const core::PageMedians cell =
      grid(opts, corpus.replayed, {core::Scheme::kDir}, cellular)[0];
  const core::PageMedians wire =
      grid(opts, corpus.replayed, {core::Scheme::kDir}, wired)[0];

  print_cdf("Cellular download OLT (s)", cell.olt_sec);
  print_cdf("Wired download OLT (s)", wire.olt_sec);

  double ratio = util::median(cell.olt_sec) / util::median(wire.olt_sec);
  std::printf("\nmedian cellular OLT = %.2fs, wired = %.2fs (%.1fx)\n",
              util::median(cell.olt_sec), util::median(wire.olt_sec), ratio);
  std::printf("paper: cellular median >6s vs wired 1.1s (~5.5x)\n");
}

// Table 1: PARCEL vs existing approaches — measured counterpart.
// The paper's table is qualitative; we print the qualitative rows plus
// the measured quantities that back them (TCP connections and HTTP
// requests crossing the radio, per page load).
void table1(const BenchOptions& opts) {
  bench::print_header("Table 1", "PARCEL vs existing approaches");

  bench::Corpus corpus = bench::build_corpus(std::min(opts.pages, 8));
  core::RunConfig cfg = bench::replay_run_config(opts, 3);

  struct Row {
    const char* name;
    core::Scheme scheme;
    const char* object_id;
    const char* interactive_js;
    const char* cellular_friendly;
  };
  const Row rows[] = {
      {"DIR (no proxy)", core::Scheme::kDir, "client", "client", "no"},
      {"HTTP proxies [9]", core::Scheme::kHttpProxy, "client", "client",
       "no"},
      {"SPDY proxies [5,16]", core::Scheme::kSpdyProxy, "client", "client",
       "no"},
      {"Cloud browsers [6,8]", core::Scheme::kCloudBrowser, "proxy", "proxy",
       "no"},
      {"PARCEL", core::Scheme::kParcelInd, "proxy", "client", "yes"},
      {"PARCEL-ADAPT", core::Scheme::kParcelAdaptive, "proxy", "client",
       "yes"},
  };

  // One run per (scheme, page), every one seeded 3.
  std::vector<core::Scheme> schemes;
  for (const Row& row : rows) schemes.push_back(row.scheme);
  const std::vector<core::PageMedians> m = core::run_grid(
      corpus.replayed, schemes, 1, cfg,
      {.per_page = 0, .per_round = 0, .offset = 0}, opts.jobs);

  std::printf("%-22s %10s %12s %10s %12s %10s\n", "scheme", "tcp-conns",
              "http-reqs", "obj-ident", "interactJS", "cell-frndly");
  for (std::size_t i = 0; i < std::size(rows); ++i) {
    std::printf("%-22s %10.0f %12.0f %10s %10s %12s\n", rows[i].name,
                util::median(m[i].tcp_connections),
                util::median(m[i].requests), rows[i].object_id,
                rows[i].interactive_js, rows[i].cellular_friendly);
  }
  std::printf("\npaper: PARCEL = single connection, single request, proxy\n"
              "identification, client JS, cellular-friendly transfer.\n");
}

// Fig 6a: download timeline for a heavyweight page (taobao-like in the
// paper): cumulative bytes at the PARCEL proxy, the PARCEL client, and
// the DIR client, with OLT markers.
void fig6a(const BenchOptions& opts) {
  bench::print_header("Figure 6a",
                      "page download timeline: PARCEL proxy/client vs DIR");

  web::PageSpec spec = web::PageGenerator::heavyweight_spec(7);
  if (opts.quick) {
    spec.object_count = 150;
    spec.total_bytes = util::mib(1.5);
  }
  replay::ReplayStore store;
  const web::WebPage& page =
      bench::replay_page(store, web::PageGenerator::generate(spec));
  std::printf("page: %zu objects, %.2f MB, %zu domains\n", page.object_count(),
              static_cast<double>(page.total_bytes()) / 1048576.0, page.domain_names().size());

  core::RunConfig cfg = bench::replay_run_config(opts, 11);
  core::RunResult dir = core::ExperimentRunner::run(core::Scheme::kDir, page, cfg);

  // PARCEL run, instrumented for the proxy-side arrival series.
  core::ParcelSessionConfig session_cfg;
  Rig<core::ParcelSession> parcel(cfg.testbed, {&page}, session_cfg,
                                  util::Rng(cfg.seed));
  parcel.load(page.main_url(), 60);
  const double parcel_client_olt = parcel.onload.value_or(-1);
  const trace::PacketTrace& parcel_trace = parcel.testbed.client_trace();

  // Proxy cumulative arrivals from its ledger.
  std::vector<std::pair<double, double>> proxy_series;
  {
    std::vector<std::pair<double, util::Bytes>> events;
    for (const auto& e : parcel.client->proxy().engine().ledger().entries()) {
      if (e.completed && !e.failed) {
        events.emplace_back(e.completed_at.sec(), e.size);
      }
    }
    std::sort(events.begin(), events.end());
    double cum = 0;
    for (auto& [t, b] : events) {
      cum += static_cast<double>(b);
      proxy_series.emplace_back(t, cum);
    }
  }
  double proxy_olt = parcel.client->proxy().engine().onload_time().sec();

  std::printf("\n%8s %14s %14s %14s\n", "t(s)", "proxy(MB)", "parcel(MB)",
              "dir(MB)");
  double horizon = std::max(dir.tlt.sec(), 1.0) + 1.0;
  for (double t = 0; t <= horizon; t += horizon / 24.0) {
    double proxy_mb = 0;
    for (const auto& [pt, cum] : proxy_series) {
      if (pt <= t) proxy_mb = cum / 1048576.0;
    }
    double parcel_mb =
        static_cast<double>(trace::TraceAnalyzer::downlink_bytes_before(
            parcel_trace, util::TimePoint::at_seconds(t))) /
        1048576.0;
    double dir_mb =
        static_cast<double>(trace::TraceAnalyzer::downlink_bytes_before(
            dir.trace, util::TimePoint::at_seconds(t))) /
        1048576.0;
    std::printf("%8.2f %14.3f %14.3f %14.3f\n", t, proxy_mb, parcel_mb,
                dir_mb);
  }
  std::printf("\nOLT markers: proxy=%.2fs  PARCEL client=%.2fs  DIR=%.2fs\n",
              proxy_olt, parcel_client_olt, dir.olt.sec());
  std::printf("paper (taobao.com): PARCEL client OLT 7.5s vs DIR 13.44s; the\n"
              "DIR curve shows long flat discovery segments.\n");
  std::printf("DIR flat segments >400ms: %zu; PARCEL client: %zu\n",
              trace::TraceAnalyzer::count_gaps_longer_than(
                  dir.trace, util::Duration::millis(400)),
              trace::TraceAnalyzer::count_gaps_longer_than(
                  parcel_trace, util::Duration::millis(400)));
}

// Fig 6b: CDF of per-page median OLT and TLT for PARCEL(IND) vs DIR.
void fig6b(const BenchOptions& opts) {
  bench::print_header("Figure 6b",
                      "per-page median latency CDFs: PARCEL(IND) vs DIR");

  const auto [dir, ind] = dir_vs_ind(opts, 21);

  print_cdf("PARCEL OLT (s)", ind.olt_sec);
  print_cdf("PARCEL TLT (s)", ind.tlt_sec);
  print_cdf("DIR OLT (s)", dir.olt_sec);
  print_cdf("DIR TLT (s)", dir.tlt_sec);

  // The paper's Fig 6b headline shapes.
  int ind_olt_under_3 = 0, dir_olt_under_3 = 0;
  int olt_reduced_1s = 0, olt_reduced_5s = 0, tlt_reduced_5s = 0;
  for (std::size_t i = 0; i < ind.olt_sec.size(); ++i) {
    if (ind.olt_sec[i] < 3.0) ++ind_olt_under_3;
    if (dir.olt_sec[i] < 3.0) ++dir_olt_under_3;
    if (dir.olt_sec[i] - ind.olt_sec[i] > 1.0) ++olt_reduced_1s;
    if (dir.olt_sec[i] - ind.olt_sec[i] > 5.0) ++olt_reduced_5s;
    if (dir.tlt_sec[i] - ind.tlt_sec[i] > 5.0) ++tlt_reduced_5s;
  }
  const std::size_t n = ind.olt_sec.size();
  std::printf("\npages with OLT < 3s: PARCEL %.0f%% (paper 70%%), DIR %.0f%% (paper 10%%)\n",
              pct(ind_olt_under_3, n), pct(dir_olt_under_3, n));
  std::printf("OLT reduced by >1s for %.0f%% of pages (paper 90%%)\n",
              pct(olt_reduced_1s, n));
  std::printf("OLT reduced by >5s for %.0f%% of pages (paper 60%%)\n",
              pct(olt_reduced_5s, n));
  std::printf("TLT reduced by >5s for %.0f%% of pages (paper 80%%)\n",
              pct(tlt_reduced_5s, n));
  std::printf("mean OLT reduction: %.1f%% (paper headline 49.6%%)\n",
              100.0 * (1.0 - util::mean(ind.olt_sec) / util::mean(dir.olt_sec)));
}

// Fig 6c: scatter of per-page median total-latency reduction vs the
// number of HTTP requests DIR issues (paper: correlation 0.83).
void fig6c(const BenchOptions& opts) {
  bench::print_header("Figure 6c",
                      "TLT reduction vs number of HTTP requests");

  const auto [dir, ind] = dir_vs_ind(opts, 33);

  std::vector<double> requests, reduction;
  std::printf("%12s %22s\n", "#requests", "TLT reduction (s)");
  for (std::size_t i = 0; i < dir.requests.size(); ++i) {
    requests.push_back(dir.requests[i]);
    reduction.push_back(dir.tlt_sec[i] - ind.tlt_sec[i]);
    std::printf("%12.0f %22.2f\n", requests.back(), reduction.back());
  }
  double rho = util::pearson_correlation(requests, reduction);
  std::printf("\nPearson correlation: %.2f (paper: 0.83)\n", rho);
  std::printf("richer pages (more requests) benefit more from PARCEL.\n");
}

void print_rrc_timeline(const char* label, const core::RunResult& result) {
  std::printf("\n%s: radio energy %.2f J, CR %.2f J, CR<->DRX transitions %zu\n",
              label, result.radio.total.j(), result.radio.cr.j(),
              result.radio.cr_drx_transitions);
  std::printf("  %-8s %-8s %s\n", "begin", "end", "state");
  for (const auto& interval : result.radio.timeline) {
    // Merge visual noise: only print intervals longer than 20 ms.
    if (interval.duration() < util::Duration::millis(20)) continue;
    std::printf("  %8.3f %8.3f %s\n", interval.begin.sec(),
                interval.end.sec(),
                std::string(lte::to_string(interval.state)).c_str());
  }
}

// Fig 7a: RRC state occupancy over a single download of the shop page
// (ebay.com landing page in the paper), DIR vs PARCEL(IND).
void fig7a(const BenchOptions& opts) {
  bench::print_header("Figure 7a",
                      "RRC states over time, DIR (top) vs PARCEL (bottom)");

  web::PageSpec spec = web::PageGenerator::interactive_spec(13);
  if (opts.quick) spec.object_count = 60;
  replay::ReplayStore store;
  const web::WebPage& page =
      bench::replay_page(store, web::PageGenerator::generate(spec));
  std::printf("page: %zu objects, %.2f MB (ebay-like)\n", page.object_count(),
              static_cast<double>(page.total_bytes()) / 1048576.0);

  core::RunConfig cfg = bench::replay_run_config(opts, 13);
  core::RunResult dir = core::ExperimentRunner::run(core::Scheme::kDir, page, cfg);
  core::RunResult ind =
      core::ExperimentRunner::run(core::Scheme::kParcelInd, page, cfg);

  print_rrc_timeline("DIR", dir);
  print_rrc_timeline("PARCEL(IND)", ind);

  std::printf("\npaper (ebay.com): DIR 11.16 J with 22 transitions;"
              " PARCEL 5.63 J with 7 transitions.\n");
}

// Fig 7b: CDF of per-page median total radio energy, PARCEL(IND) vs DIR.
void fig7b(const BenchOptions& opts) {
  bench::print_header("Figure 7b",
                      "per-page median radio energy CDFs: PARCEL vs DIR");

  const auto [dir, ind] = dir_vs_ind(opts, 41);

  print_cdf("PARCEL total radio energy (J)", ind.radio_j);
  print_cdf("DIR total radio energy (J)", dir.radio_j);

  int ind_under_4 = 0, dir_under_4 = 0;
  for (std::size_t i = 0; i < ind.radio_j.size(); ++i) {
    if (ind.radio_j[i] < 4.0) ++ind_under_4;
    if (dir.radio_j[i] < 4.0) ++dir_under_4;
  }
  std::printf("\npages under 4 J: PARCEL %.0f%% (paper ~80%% under 4 J),"
              " DIR %.0f%% (paper 38%%)\n",
              pct(ind_under_4, ind.radio_j.size()),
              pct(dir_under_4, ind.radio_j.size()));
  std::printf("max energy: PARCEL %.1f J (paper 8 J), DIR %.1f J (paper 13 J)\n",
              util::percentile(ind.radio_j, 100),
              util::percentile(dir.radio_j, 100));
}

// Fig 7c: per-page radio energy savings of PARCEL vs DIR, total and the
// CR-state share of those savings.
void fig7c(const BenchOptions& opts) {
  bench::print_header("Figure 7c",
                      "fraction of DIR radio energy saved by PARCEL, per page");

  const auto [dir, ind] = dir_vs_ind(opts, 43);

  std::vector<double> total_savings, cr_share;
  std::printf("%6s %14s %18s %18s\n", "page", "size(MB)", "total saved(%)",
              "CR share of saved(%)");
  for (std::size_t i = 0; i < dir.radio_j.size(); ++i) {
    double saved = (dir.radio_j[i] - ind.radio_j[i]) / dir.radio_j[i];
    double cr_saved = (dir.cr_j[i] - ind.cr_j[i]) / dir.radio_j[i];
    total_savings.push_back(saved * 100);
    cr_share.push_back(saved > 0 ? cr_saved / saved * 100 : 0);
    std::printf("%6zu %14.2f %18.1f %18.1f\n", i,
                dir.page_bytes[i] / 1048576.0, total_savings.back(),
                cr_share.back());
  }

  int saved_20 = 0, saved_50 = 0, cr_half = 0;
  for (std::size_t i = 0; i < total_savings.size(); ++i) {
    if (total_savings[i] >= 20) ++saved_20;
    if (total_savings[i] >= 50) ++saved_50;
    if (cr_share[i] >= 50) ++cr_half;
  }
  const std::size_t n = total_savings.size();
  std::printf("\n>=20%% savings on %.0f%% of pages (paper 95%%)\n", pct(saved_20, n));
  std::printf(">=50%% savings on %.0f%% of pages (paper 50%%)\n", pct(saved_50, n));
  std::printf("CR accounts for >=50%% of savings on %.0f%% of pages (paper 85%%)\n",
              pct(cr_half, n));
  std::printf("mean radio energy reduction: %.1f%% (paper headline 65%%)\n",
              100.0 * (1.0 - util::mean(ind.radio_j) / util::mean(dir.radio_j)));
}

// Fig 8: cumulative radio and total device energy over an interactive
// session — first download (FD) then four clicks (C1-C4), one per minute,
// paging through product images (ebay-like gallery). PARCEL and DIR
// handle clicks locally; CB round-trips each click to the cloud.
struct SessionOutcome {
  std::vector<double> event_times;  // FD, C1..C4
  std::vector<double> cpu_busy_at_event;
  trace::PacketTrace trace;
};

constexpr int kClicks = 4;
constexpr double kClickSpacing = 60.0;

/// Drive FD + clicks; `click` runs one interaction and calls its argument
/// when displayed, `cpu_busy` samples the client CPU busy-seconds.
SessionOutcome drive(core::Testbed& testbed,
                     std::function<void(std::function<void()>)> load,
                     std::function<void(int, std::function<void()>)> click,
                     std::function<double()> cpu_busy) {
  SessionOutcome out;
  auto& sched = testbed.scheduler();
  load([&] {
    out.event_times.push_back(sched.now().sec());
    out.cpu_busy_at_event.push_back(cpu_busy());
  });
  for (int c = 0; c < kClicks; ++c) {
    sched.schedule_at(util::TimePoint::at_seconds(kClickSpacing * (c + 1)),
                      [&, c] {
                        click(c, [&] {
                          out.event_times.push_back(sched.now().sec());
                          out.cpu_busy_at_event.push_back(cpu_busy());
                        });
                      });
  }
  sched.run_until(util::TimePoint::at_seconds(kClickSpacing * (kClicks + 1)));
  out.trace = testbed.client_trace();
  return out;
}

void report(const char* name, const SessionOutcome& outcome,
            const lte::DeviceProfile& device) {
  lte::EnergyAnalyzer analyzer(device.rrc);
  lte::EnergyReport full = analyzer.analyze(outcome.trace, true);
  std::printf("%-8s", name);
  const char* labels[] = {"FD", "C1", "C2", "C3", "C4"};
  for (std::size_t i = 0; i < outcome.event_times.size() && i < 5; ++i) {
    double radio_j = analyzer
                         .energy_between(full, util::TimePoint::origin(),
                                         util::TimePoint::at_seconds(
                                             outcome.event_times[i]))
                         .j();
    double cpu_j = device.cpu_active.w() * outcome.cpu_busy_at_event[i] +
                   device.cpu_idle.w() *
                       (outcome.event_times[i] - outcome.cpu_busy_at_event[i]);
    std::printf("  %s: %5.1fJ/%5.1fJ", labels[i], radio_j, radio_j + cpu_j);
  }
  std::printf("\n");
}

void fig8(const BenchOptions& opts) {
  bench::print_header(
      "Figure 8", "cumulative radio / total energy over a user session");

  web::PageSpec spec = web::PageGenerator::interactive_spec(17);
  if (opts.quick) spec.object_count = 60;
  replay::ReplayStore store;
  const web::WebPage& page =
      bench::replay_page(store, web::PageGenerator::generate(spec));
  lte::DeviceProfile device = lte::DeviceProfile::galaxy_s3();
  core::RunConfig base = bench::replay_run_config(opts, 17);

  std::printf("page: %zu objects, %.2f MB; click every %.0f s\n",
              page.object_count(), static_cast<double>(page.total_bytes()) / 1048576.0,
              kClickSpacing);
  std::printf("cells are cumulative radio J / total device J (screen excluded)\n\n");

  {  // PARCEL
    core::ParcelSessionConfig cfg;
    cfg.client_engine.parse_bytes_per_sec = device.parse_bytes_per_sec;
    cfg.client_engine.js_units_per_sec = device.js_units_per_sec;
    Rig<core::ParcelSession> rig(base.testbed, {&page}, cfg, util::Rng(1));
    core::ParcelSession& session = *rig.client;
    auto outcome = drive(
        rig.testbed,
        [&](std::function<void()> done) {
          core::ParcelSession::Callbacks cbs;
          cbs.on_complete = [done](util::TimePoint) { done(); };
          session.load(page.main_url(), std::move(cbs));
        },
        [&](int c, std::function<void()> done) { session.click(c, done); },
        [&] { return session.client_engine().cpu_busy().sec(); });
    report("PARCEL", outcome, device);
  }

  {  // DIR
    Rig<browser::DirBrowser> rig(base.testbed, {&page}, handset_dir_config(),
                                 util::Rng(1));
    browser::DirBrowser& dir = *rig.client;
    auto outcome = drive(
        rig.testbed,
        [&](std::function<void()> done) {
          browser::BrowserEngine::Callbacks cbs;
          cbs.on_complete = [done](util::TimePoint) { done(); };
          dir.load(page.main_url(), std::move(cbs));
        },
        [&](int c, std::function<void()> done) { dir.click(c, done); },
        [&] { return dir.engine().cpu_busy().sec(); });
    report("DIR", outcome, device);
  }

  {  // CB
    core::Testbed testbed(base.testbed);
    testbed.host_page(page);
    browser::CloudBrowserConfig cfg;
    cfg.proxy_fetch.engine.parse_bytes_per_sec = 40e6;
    cfg.proxy_fetch.engine.js_units_per_sec = 500;
    cfg.client.parse_bytes_per_sec = device.parse_bytes_per_sec;
    cfg.client.js_units_per_sec = device.js_units_per_sec;
    browser::CloudBrowserProxy proxy(testbed.network(), cfg, util::Rng(1));
    testbed.register_proxy_endpoint("cb.proxy.example", proxy);
    browser::CloudBrowserClient client(testbed.network(), "cb.proxy.example",
                                       cfg);
    auto outcome = drive(
        testbed,
        [&](std::function<void()> done) {
          client.load(page.main_url(), [done](util::TimePoint) { done(); });
        },
        [&](int c, std::function<void()> done) { client.click(c, done); },
        [&] { return client.cpu_busy().sec(); });
    report("CB", outcome, device);
  }

  std::printf(
      "\npaper: CB's cumulative radio energy grows with every click while\n"
      "PARCEL and DIR stay flat (local JS, cached images); by C4 CB's total\n"
      "device energy exceeds both despite its cheaper first download.\n");
}

// §6 analytical model: alpha, E(n), OLT(n), and the optimal bundle size
// b* = alpha*sqrt(sB), cross-checked against the simulator by sweeping
// PARCEL(X) thresholds on a 2 MB page at ~6 Mbps.
void sec6(const BenchOptions& opts) {
  bench::print_header("Section 6 model", "bundling trade-off analysis");

  core::ModelParams params;
  params.download_bytes_per_sec = 6e6 / 8.0;
  params.onload_bytes = 2 * 1000 * 1000;
  params.proxy_onload = util::Duration::seconds(1.5);
  core::AnalyticalModel model(params);

  std::printf("alpha = %.3f (paper: 0.74)\n", model.alpha());
  std::printf("optimal bundle b* = %.2f MB for B = 2 MB at s = 6 Mbps "
              "(paper: ~0.9 MB)\n",
              static_cast<double>(model.optimal_bundle_bytes()) / 1e6);
  std::printf("optimal bundle count n* = %.2f\n\n",
              model.optimal_bundle_count());

  std::printf("%8s %14s %14s\n", "n", "E(n) (J)", "OLT(n) (s)");
  for (double n : {1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 24.0}) {
    std::printf("%8.1f %14.3f %14.3f\n", n, model.energy(n).j(),
                model.onload_time(n).sec());
  }

  // Simulation cross-check: a ~2 MB page, thresholds around b*.
  std::printf("\nsimulation sweep (2 MB page, PARCEL(X)):\n");
  web::PageSpec spec;
  spec.site = "model.example.com";
  spec.object_count = opts.quick ? 80 : 150;
  spec.total_bytes = util::mib(2.0);
  spec.seed = 61;
  replay::ReplayStore store;
  const web::WebPage& page =
      bench::replay_page(store, web::PageGenerator::generate(spec));

  std::printf("%12s %12s %12s %10s\n", "X (KB)", "radio (J)", "OLT (s)",
              "bundles");
  core::RunConfig cfg = bench::replay_run_config(opts, 61);
  double best_x = 0, best_j = 1e9;
  for (util::Bytes x : {util::kib(128), util::kib(256), util::kib(512),
                        util::kib(768), util::mib(1), util::mib(2)}) {
    util::Summary radio, olt, bundles;
    for (int r = 0; r < std::max(opts.rounds, 2); ++r) {
      const std::uint64_t seed = cfg.seed + static_cast<std::uint64_t>(r) * 17 + 1;
      core::ParcelSessionConfig session_cfg;
      session_cfg.proxy.bundle.threshold = x;
      Rig<core::ParcelSession> rig(cfg.testbed, {&page}, session_cfg,
                                   util::Rng(seed));
      rig.load(page.main_url(), 60);
      radio.add(rig.radio_j());
      olt.add(rig.onload.value_or(0));
      bundles.add(static_cast<double>(rig.client->bundles_delivered()));
    }
    std::printf("%12lld %12.2f %12.2f %10.0f\n",
                static_cast<long long>(x / 1024), radio.median(), olt.median(),
                bundles.median());
    if (radio.median() < best_j) {
      best_j = radio.median();
      best_x = static_cast<double>(x);
    }
  }
  std::printf("\nsimulated energy-optimal threshold ~%.0f KB; analytic b* = "
              "%.0f KB.\npaper: measured optimum slightly below the analytic "
              "optimum (512K vs 0.9M).\n",
              best_x / 1024,
              static_cast<double>(model.optimal_bundle_bytes()) / 1024);
}

// Fig 9a/9b/9c: PARCEL bundling variants (512K / 1M / 2M / ONLD) against
// PARCEL(IND): OLT increase CDF, radio energy increase CDF, and the
// page-size vs energy-delta scatter for 512K.
void fig9(const BenchOptions& opts) {
  bench::print_header("Figure 9",
                      "bundling variants vs PARCEL(IND): latency & energy");

  bench::Corpus corpus = bench::build_corpus(opts.pages);
  core::RunConfig cfg = bench::replay_run_config(opts, 91);

  std::vector<core::PageMedians> m = grid(
      opts, corpus.replayed,
      {core::Scheme::kParcelInd, core::Scheme::kParcel512K,
       core::Scheme::kParcel1M, core::Scheme::kParcel2M,
       core::Scheme::kParcelOnld},
      cfg);
  const core::PageMedians& ind = m[0];

  struct Variant {
    const char* name;
    const core::PageMedians& medians;
  };
  const Variant variants[] = {
      {"PARCEL(512K)", m[1]},
      {"PARCEL(1M)", m[2]},
      {"PARCEL(2M)", m[3]},
      {"PARCEL(ONLD)", m[4]},
  };

  std::printf("\n--- Fig 9a: OLT increase vs IND (s) ---\n");
  for (const auto& v : variants) {
    std::vector<double> delta;
    for (std::size_t i = 0; i < ind.olt_sec.size(); ++i) {
      delta.push_back(v.medians.olt_sec[i] - ind.olt_sec[i]);
    }
    std::printf("%-14s median %+.2fs  p90 %+.2fs\n", v.name,
                util::median(delta), util::percentile(delta, 90));
  }
  std::printf("paper: increase grows with bundle size; ONLD worst "
              "(median +0.57s), 512K mildest (+0.11s).\n");

  std::printf("\n--- Fig 9b: radio energy increase vs IND (J) ---\n");
  for (const auto& v : variants) {
    std::vector<double> delta;
    int helped = 0;
    for (std::size_t i = 0; i < ind.radio_j.size(); ++i) {
      delta.push_back(v.medians.radio_j[i] - ind.radio_j[i]);
      if (delta.back() < 0) ++helped;
    }
    std::printf("%-14s median %+.2fJ  helps on %.0f%% of pages\n", v.name,
                util::median(delta), pct(helped, delta.size()));
  }
  std::printf("paper: no single bundle size wins everywhere; 512K lowers "
              "energy on ~60%% of pages.\n");

  std::printf("\n--- Fig 9c: page size vs energy delta, PARCEL(512K) ---\n");
  std::printf("%14s %22s\n", "size (MB)", "energy delta (J)");
  const auto& x512 = variants[0].medians;
  std::vector<double> big_deltas, small_deltas;
  for (std::size_t i = 0; i < ind.radio_j.size(); ++i) {
    double mb = ind.page_bytes[i] / 1048576.0;
    double delta = x512.radio_j[i] - ind.radio_j[i];
    std::printf("%14.2f %22.2f\n", mb, delta);
    (mb > 2.0 ? big_deltas : small_deltas).push_back(delta);
  }
  if (!big_deltas.empty()) {
    std::printf("\nmean delta, pages > 2 MB: %+.2f J (paper: bundling helps "
                "large pages)\n",
                util::mean(big_deltas));
  }
  if (!small_deltas.empty()) {
    std::printf("mean delta, pages < 2 MB: %+.2f J (paper: small pages show "
                "no clear trend)\n",
                util::mean(small_deltas));
  }
}

// §8.3 "Sensitivity to proxy-server delay": dummynet RTT 20 ms vs 60 ms
// (one-way 10/30 ms). Paper: with higher delay, ONLD's latency penalty
// grows but so do its energy savings over IND.
void delay_sensitivity(const BenchOptions& opts) {
  bench::print_header("Proxy-server delay sensitivity (§8.3)",
                      "ONLD vs IND under 20 ms and 60 ms origin RTT");

  bench::Corpus corpus = bench::build_corpus(std::min(opts.pages, 12));

  for (double one_way_ms : {10.0, 30.0}) {
    core::RunConfig cfg = bench::replay_run_config(opts, 71);
    cfg.testbed.server_delay = util::Duration::millis(one_way_ms);
    const std::vector<core::PageMedians> m =
        grid(opts, corpus.replayed,
             {core::Scheme::kParcelInd, core::Scheme::kParcelOnld}, cfg);
    const core::PageMedians& ind = m[0];
    const core::PageMedians& onld = m[1];

    std::vector<double> olt_penalty, energy_delta;
    for (std::size_t i = 0; i < ind.olt_sec.size(); ++i) {
      olt_penalty.push_back(onld.olt_sec[i] - ind.olt_sec[i]);
      energy_delta.push_back(onld.radio_j[i] - ind.radio_j[i]);
    }
    std::printf("\norigin RTT %3.0f ms: ONLD OLT penalty median %+.2fs, "
                "ONLD energy delta median %+.2fJ\n",
                2 * one_way_ms, util::median(olt_penalty),
                util::median(energy_delta));
  }
  std::printf("\npaper: at higher proxy-server delay ONLD pays more latency\n"
              "but saves more energy, because IND's arrivals spread out and\n"
              "cost extra state transitions.\n");
}

// Fig 10: OLT with "real web servers" (§8.4): live (un-normalized) pages,
// heterogeneous per-domain origin delays, LTE signal fading.
// PARCEL(512K) vs DIR.
void fig10(const BenchOptions& opts) {
  bench::print_header("Figure 10", "OLT with real web servers (live mode)");

  const std::vector<core::PageMedians> m = live_grid(
      opts, 101,
      {.per_page = 211, .per_round = 13, .offset = 0, .fade_mul = 3});
  const std::vector<double>& dir_olt = m[0].olt_sec;
  const std::vector<double>& parcel_olt = m[1].olt_sec;

  print_cdf("PARCEL(512K) OLT (s)", parcel_olt);
  print_cdf("DIR OLT (s)", dir_olt);

  int third_or_less = 0;
  for (std::size_t i = 0; i < dir_olt.size(); ++i) {
    if (parcel_olt[i] <= dir_olt[i] / 3.0) ++third_or_less;
  }
  std::printf("\nmedian OLT: PARCEL(512K) %.2fs (paper <2.5s), DIR %.2fs "
              "(paper ~6s)\n",
              util::median(parcel_olt), util::median(dir_olt));
  std::printf("PARCEL OLT <= 1/3 of DIR on %.0f%% of pages (paper 50%%)\n",
              pct(third_or_less, dir_olt.size()));
}

// Fig 11: total radio energy with real web servers (§8.4), live mode,
// PARCEL(512K) vs DIR.
void fig11(const BenchOptions& opts) {
  bench::print_header("Figure 11",
                      "radio energy with real web servers (live mode)");

  const std::vector<core::PageMedians> m = live_grid(
      opts, 111,
      {.per_page = 223, .per_round = 19, .offset = 0, .fade_mul = 5});
  const std::vector<double>& dir_j = m[0].radio_j;
  const std::vector<double>& parcel_j = m[1].radio_j;

  print_cdf("PARCEL(512K) radio energy (J)", parcel_j);
  print_cdf("DIR radio energy (J)", dir_j);

  std::printf("\nmax PARCEL energy: %.1f J (paper: all pages < 6.5 J)\n",
              util::percentile(parcel_j, 100));
  std::printf("median: PARCEL %.2f J vs DIR %.2f J\n",
              util::median(parcel_j), util::median(dir_j));
  std::printf("paper: PARCEL(512K) consistently below DIR; ~40%% of DIR\n"
              "pages consume significantly more.\n");
}

// Headline numbers (abstract/§8): average OLT reduction (paper 49.6%) and
// average radio energy reduction (paper 65%) of PARCEL(IND) vs DIR across
// the corpus, plus the relative standings of every scheme.
void headline(const BenchOptions& opts) {
  bench::print_header("Headline summary",
                      "PARCEL vs DIR across the evaluation corpus");

  bench::Corpus corpus = bench::build_corpus(opts.pages);
  core::RunConfig cfg = bench::replay_run_config(opts, 201);

  const std::vector<core::Scheme> schemes = {
      core::Scheme::kDir,        core::Scheme::kHttpProxy,
      core::Scheme::kSpdyProxy,  core::Scheme::kParcelInd,
      core::Scheme::kParcel512K, core::Scheme::kParcel1M,
      core::Scheme::kParcelOnld, core::Scheme::kCloudBrowser,
      core::Scheme::kParcelAdaptive,
  };
  const std::vector<core::PageMedians> results =
      grid(opts, corpus.replayed, schemes, cfg);
  auto medians_of = [&](core::Scheme s) -> const core::PageMedians& {
    return results[static_cast<std::size_t>(
        std::find(schemes.begin(), schemes.end(), s) - schemes.begin())];
  };

  std::printf("%-14s %10s %10s %12s %10s\n", "scheme", "med OLT", "med TLT",
              "med radio", "mean radio");
  for (std::size_t i = 0; i < schemes.size(); ++i) {
    const core::PageMedians& m = results[i];
    std::printf("%-14s %9.2fs %9.2fs %11.2fJ %9.2fJ\n",
                core::to_string(schemes[i]).c_str(), util::median(m.olt_sec),
                util::median(m.tlt_sec), util::median(m.radio_j),
                util::mean(m.radio_j));
  }

  const core::PageMedians& dir = medians_of(core::Scheme::kDir);
  const core::PageMedians& ind = medians_of(core::Scheme::kParcelInd);
  std::vector<double> olt_red, j_red;
  for (std::size_t i = 0; i < dir.olt_sec.size(); ++i) {
    olt_red.push_back(100.0 * (1 - ind.olt_sec[i] / dir.olt_sec[i]));
    j_red.push_back(100.0 * (1 - ind.radio_j[i] / dir.radio_j[i]));
  }
  std::printf("\nper-page OLT reduction: mean %.1f%%, median %.1f%% "
              "(paper headline: 49.6%%)\n",
              util::mean(olt_red), util::median(olt_red));
  std::printf("per-page radio energy reduction: mean %.1f%%, median %.1f%% "
              "(paper headline: 65%%)\n",
              util::mean(j_red), util::median(j_red));
  std::printf("\nNOTE: absolute joules/seconds are properties of the\n"
              "simulated substrate; the reproduction targets are the\n"
              "orderings and rough factors (see EXPERIMENTS.md).\n");
}

// Ablations over PARCEL's design decisions (DESIGN.md §4):
//   A1 request suppression (§4.5): off -> every cache miss crosses the
//      radio immediately instead of waiting for in-flight pushes.
//   A2 completion-heuristic window: too short -> premature completion
//      notes and fallbacks; too long -> late TLT.
//   A3 proxy provisioning: a proxy as slow as the handset -> shows how
//      much of the win is the split itself (short-RTT object discovery)
//      vs raw server horsepower.
//   A4 SPDY transport without refactoring (§4.3): client-side discovery
//      over one multiplexed connection vs PARCEL's proxy-side discovery.
struct AblationResult {
  double olt = 0, tlt = 0, radio = 0;
  std::size_t fallbacks = 0, radio_requests = 0;
};

AblationResult run_ablation(const web::WebPage& page,
                            core::ParcelSessionConfig cfg, std::uint64_t seed) {
  Rig<core::ParcelSession> rig(core::TestbedConfig{}, {&page}, std::move(cfg),
                               util::Rng(seed));
  rig.load(page.main_url(), 60);
  AblationResult out;
  out.olt = rig.onload.value_or(0);
  out.tlt = rig.complete.value_or(0);
  out.radio = rig.radio_j();
  out.fallbacks = rig.client->client_fetcher().fallback_requests();
  out.radio_requests = 1 + out.fallbacks;
  return out;
}

void ablation(const BenchOptions& opts) {
  bench::print_header("Ablations", "which design choices buy what");

  bench::Corpus corpus = bench::build_corpus(std::min(opts.pages, 6));
  const web::WebPage& page = *corpus.replayed[0];
  std::printf("page: %zu objects, %.2f MB (replayed)\n\n",
              page.object_count(), static_cast<double>(page.total_bytes()) / 1048576.0);

  // A1: suppression.
  {
    core::ParcelSessionConfig on_cfg;
    core::ParcelSessionConfig off_cfg;
    off_cfg.client_suppression = false;
    AblationResult on = run_ablation(page, on_cfg, 5);
    AblationResult off = run_ablation(page, off_cfg, 5);
    std::printf("A1 suppression ON : olt=%.2fs radio=%.2fJ reqs-over-radio=%zu\n",
                on.olt, on.radio, on.radio_requests);
    std::printf("A1 suppression OFF: olt=%.2fs radio=%.2fJ reqs-over-radio=%zu\n",
                off.olt, off.radio, off.radio_requests);
    std::printf("   -> without suppression the client floods the radio with\n"
                "      requests for objects already in flight (§4.5).\n\n");
  }

  // A2: completion-heuristic window sweep.
  std::printf("A2 completion window sweep (live page, randomized JS URLs):\n");
  {
    // Use the live page so the heuristic actually matters.
    const web::WebPage& live = *corpus.live_pages[0];
    for (double window_s : {0.25, 1.0, 1.5, 3.0, 5.0}) {
      core::ParcelSessionConfig cfg;
      cfg.proxy.inactivity_window = util::Duration::seconds(window_s);
      AblationResult r = run_ablation(live, cfg, 7);
      std::printf("   window %4.2fs: tlt=%5.2fs fallbacks=%zu radio=%.2fJ\n",
                  window_s, r.tlt, r.fallbacks, r.radio);
    }
    std::printf("   -> short windows declare completion early (more\n"
                "      fallbacks); long windows stretch the session.\n\n");
  }

  // A3: proxy provisioning.
  {
    core::ParcelSessionConfig fast_cfg;  // default: server-class proxy
    core::ParcelSessionConfig slow_cfg;
    slow_cfg.proxy.fetch.engine.parse_bytes_per_sec =
        lte::DeviceProfile::galaxy_s3().parse_bytes_per_sec;
    slow_cfg.proxy.fetch.engine.js_units_per_sec =
        lte::DeviceProfile::galaxy_s3().js_units_per_sec;
    AblationResult fast = run_ablation(page, fast_cfg, 9);
    AblationResult slow = run_ablation(page, slow_cfg, 9);
    std::printf("A3 proxy = server-class: olt=%.2fs\n", fast.olt);
    std::printf("A3 proxy = handset-class: olt=%.2fs\n", slow.olt);
    core::RunConfig run_cfg = bench::replay_run_config(opts, 9);
    auto dir = core::ExperimentRunner::run(core::Scheme::kDir, page, run_cfg);
    std::printf("   (DIR baseline: %.2fs) -> even a handset-speed proxy\n"
                "   wins: the split removes radio RTTs from discovery, the\n"
                "   fast CPU is a bonus.\n\n", dir.olt.sec());
  }

  // A4: SPDY transport, no functionality refactoring (§4.3).
  {
    core::RunConfig run_cfg = bench::replay_run_config(opts, 13);
    auto spdy =
        core::ExperimentRunner::run(core::Scheme::kSpdyProxy, page, run_cfg);
    auto ind =
        core::ExperimentRunner::run(core::Scheme::kParcelInd, page, run_cfg);
    auto dir = core::ExperimentRunner::run(core::Scheme::kDir, page, run_cfg);
    std::printf("A4 DIR         : olt=%.2fs radio=%.2fJ\n", dir.olt.sec(),
                dir.radio.total.j());
    std::printf("A4 SPDY proxy  : olt=%.2fs radio=%.2fJ\n", spdy.olt.sec(),
                spdy.radio.total.j());
    std::printf("A4 PARCEL(IND) : olt=%.2fs radio=%.2fJ\n", ind.olt.sec(),
                ind.radio.total.j());
    std::printf("   -> multiplexing alone keeps discovery on the slow client\n"
                "      (paper §4.3: PARCEL's advantage holds under SPDY).\n");
  }
}

// Browsing-session experiment (§4.5 caching + §7.3 session discussion,
// beyond the paper's single-page figures): a landing page followed by two
// interior pages of the same site. DIR benefits from its device cache;
// PARCEL additionally benefits from the personalized proxy's cache
// mirror, which keeps already-delivered objects off the radio entirely.
struct PageMetrics {
  double olt = 0;
  util::Bytes radio_down = 0;
};

/// Loads `pages` in turn on `rig`'s client, each with 60 s of clock.
template <class Client>
std::vector<PageMetrics> browse(Rig<Client>& rig,
                                const std::vector<const web::WebPage*>& pages) {
  std::vector<PageMetrics> out;
  double t = 0;
  for (const web::WebPage* page : pages) {
    util::Bytes down_before = rig.testbed.client_trace().downlink_bytes();
    rig.load(page->main_url(), t + 60.0);
    if (!rig.complete) std::fprintf(stderr, "warning: page did not complete\n");
    PageMetrics m;
    if (rig.onload) m.olt = *rig.onload - t;
    m.radio_down = rig.testbed.client_trace().downlink_bytes() - down_before;
    out.push_back(m);
    t = rig.testbed.scheduler().now().sec();
  }
  return out;
}

void browsing_session(const BenchOptions&) {
  bench::print_header("Browsing session",
                      "landing page + two interior pages, per-page costs");

  web::PageSpec spec;
  spec.site = "news.example.com";
  spec.object_count = 90;
  spec.total_bytes = util::mib(1.1);
  spec.seed = 77;
  replay::ReplayStore store;
  const web::WebPage& p1 =
      bench::replay_page(store, web::PageGenerator::generate(spec));
  web::WebPage p2 = web::PageGenerator::follow_page(p1, 101, 2);
  web::WebPage p3 = web::PageGenerator::follow_page(p1, 102, 3);
  const std::vector<const web::WebPage*> pages = {&p1, &p2, &p3};
  std::printf("pages: %zu / %zu / %zu objects, %.2f / %.2f / %.2f MB\n\n",
              p1.object_count(), p2.object_count(), p3.object_count(),
              static_cast<double>(p1.total_bytes()) / 1048576.0, static_cast<double>(p2.total_bytes()) / 1048576.0,
              static_cast<double>(p3.total_bytes()) / 1048576.0);

  std::vector<PageMetrics> dir_m, parcel_m;
  {
    Rig<browser::DirBrowser> rig(core::TestbedConfig{}, {&p1, &p2, &p3},
                                 handset_dir_config(), util::Rng(1));
    dir_m = browse(rig, pages);
  }
  {
    Rig<core::ParcelSession> rig(core::TestbedConfig{}, {&p1, &p2, &p3},
                                 core::ParcelSessionConfig{}, util::Rng(1));
    parcel_m = browse(rig, pages);
  }

  std::printf("%8s %16s %16s %18s %18s\n", "page", "DIR OLT(s)",
              "PARCEL OLT(s)", "DIR radio(KB)", "PARCEL radio(KB)");
  const char* names[] = {"landing", "page2", "page3"};
  for (int i = 0; i < 3; ++i) {
    std::printf("%8s %16.2f %16.2f %18lld %18lld\n", names[i], dir_m[i].olt,
                parcel_m[i].olt,
                static_cast<long long>(dir_m[i].radio_down / 1024),
                static_cast<long long>(parcel_m[i].radio_down / 1024));
  }
  std::printf("\ninterior pages ride the device cache in both schemes; the\n"
              "proxy's cache mirror keeps PARCEL's page-2/3 radio volume to\n"
              "the genuinely new bytes (paper §7.3: benefits aggregate over\n"
              "each page of a session).\n");
}

// ------------------------------------------------------------ registry

struct Entry {
  const char* id;
  int (*run)(const BenchOptions&);
  /// Paper entries make up `all`; harness entries write files and gate,
  /// so they run only when named.
  bool paper;
};

/// A paper entry's runner: figures print and never fail.
template <void (*Print)(const BenchOptions&)>
int figure(const BenchOptions& opts) {
  Print(opts);
  return 0;
}

constexpr Entry kEntries[] = {
    {"corpus", figure<corpus_stats>, true},
    {"fig3", figure<fig3>, true},
    {"table1", figure<table1>, true},
    {"fig6a", figure<fig6a>, true},
    {"fig6b", figure<fig6b>, true},
    {"fig6c", figure<fig6c>, true},
    {"fig7a", figure<fig7a>, true},
    {"fig7b", figure<fig7b>, true},
    {"fig7c", figure<fig7c>, true},
    {"fig8", figure<fig8>, true},
    {"sec6", figure<sec6>, true},
    {"fig9", figure<fig9>, true},
    {"delay", figure<delay_sensitivity>, true},
    {"fig10", figure<fig10>, true},
    {"fig11", figure<fig11>, true},
    {"headline", figure<headline>, true},
    {"ablation", figure<ablation>, true},
    {"session", figure<browsing_session>, true},
    {"adaptive", bench::adaptive_harness, false},
    {"faults", bench::faults_harness, false},
    {"fleet", bench::fleet_harness, false},
    {"parse-cache", bench::parse_cache_harness, false},
};

[[noreturn]] void usage_error(const std::string& message) {
  std::fprintf(stderr, "error: %s\nfigures:", message.c_str());
  for (const Entry& entry : kEntries) std::fprintf(stderr, " %s", entry.id);
  std::fprintf(stderr, " (or all)\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> ids;
  const BenchOptions opts = bench::parse_options(argc, argv, &ids);
  std::vector<const Entry*> plan;
  for (const std::string& id : ids) {
    if (id == "all") {
      for (const Entry& entry : kEntries) {
        if (entry.paper) plan.push_back(&entry);
      }
      continue;
    }
    const Entry* entry =
        std::find_if(std::begin(kEntries), std::end(kEntries),
                     [&](const Entry& e) { return id == e.id; });
    if (entry == std::end(kEntries)) usage_error("unknown figure " + id);
    plan.push_back(entry);
  }
  if (plan.empty()) usage_error("no figure given");
  int status = 0;
  for (const Entry* entry : plan) {
    if (entry->run(opts) != 0) status = 1;
  }
  return status;
}

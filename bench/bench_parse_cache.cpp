// Parse-cache benchmark: corpus scan workload + end-to-end identity.
//
// The evaluation grid loads every immutable page snapshot once per
// (scheme, round) pair, and each load tokenizes the same HTML/CSS/JS —
// on the client engine and again on the proxy engine. Two measurements:
//
// 1. "scan workload": the corpus's parse work replayed for the grid's
//    repetition count, fresh scans vs through web::ParseCache. This is
//    the CPU the cache removes, isolated from simulated network time.
// 2. "end-to-end": run_corpus (DIR + PARCEL(IND)) on a cold cache (right
//    after clear(), so every first lookup misses and scans), then warm,
//    asserting the medians stay bitwise identical — the cache must be
//    invisible in results. This leg reports the warm hit rate but no
//    timing: the grid takes hundredths of a second, so a cold/warm wall
//    ratio would measure scheduling noise, not the cache.
//
// Results go to stdout and BENCH_parse_cache.json. Exits 1 when the scan
// workload's hit rate is zero or the cache changes end-to-end results.
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "web/css.hpp"
#include "web/html.hpp"
#include "web/js.hpp"
#include "web/parse_cache.hpp"

namespace {

using namespace parcel;
namespace json = bench::json;
// parcel-lint: allow(nondet-time) wall-clock is the measurement here: this bench times real parse/scan speedup, not simulated time
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// One grid-load's worth of scanning for `page`, the way the engines do
/// it: tokenize the main document, execute every inline script body,
/// scan every stylesheet, extract references from every script. With
/// `cached` false this is the pre-cache behavior (a fresh scan each
/// time); with true, repeat loads hit the shared artifacts.
std::size_t scan_page_once(const web::WebPage& page, bool cached) {
  std::size_t scans = 0;
  for (const web::WebObject* obj : page.objects()) {
    if (!obj->content) continue;
    switch (obj->type) {
      case web::ObjectType::kHtml: {
        if (cached) {
          auto tokens = web::ParseCache::instance().html(*obj->content,
                                                         obj->content);
          for (const web::HtmlToken& t : *tokens) {
            if (t.kind == web::HtmlToken::Kind::kInlineScript) {
              (void)web::ParseCache::instance().js(t.script, tokens.pin);
              ++scans;
            }
          }
        } else {
          std::vector<web::HtmlToken> tokens = web::MiniHtml::scan(
              *obj->content);
          for (const web::HtmlToken& t : tokens) {
            if (t.kind == web::HtmlToken::Kind::kInlineScript) {
              (void)web::MiniJs::run(t.script);
              ++scans;
            }
          }
        }
        ++scans;
        break;
      }
      case web::ObjectType::kCss: {
        if (cached) {
          (void)web::ParseCache::instance().css(*obj->content, obj->content);
        } else {
          (void)web::MiniCss::scan(*obj->content);
        }
        ++scans;
        break;
      }
      case web::ObjectType::kJs:
      case web::ObjectType::kJsAsync: {
        if (cached) {
          (void)web::ParseCache::instance().js(*obj->content, obj->content);
        } else {
          (void)web::MiniJs::run(*obj->content);
        }
        ++scans;
        break;
      }
      default:
        break;
    }
  }
  return scans;
}

struct WorkloadResult {
  double sec = 0.0;
  std::size_t scans = 0;
};

/// The grid re-scans every page `loads_per_page` times (schemes x rounds
/// x client+proxy engines).
WorkloadResult scan_workload(const bench::Corpus& corpus, int loads_per_page,
                             bool cached) {
  WorkloadResult r;
  auto start = Clock::now();
  for (int rep = 0; rep < loads_per_page; ++rep) {
    for (const web::WebPage* page : corpus.replayed) {
      r.scans += scan_page_once(*page, cached);
    }
  }
  r.sec = seconds_since(start);
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchOptions opts = bench::parse_options(argc, argv);
  bench::print_header("Parse cache",
                      "corpus scan workload + end-to-end cold/warm identity");

  const int pages = opts.quick ? 6 : std::min(opts.pages, 12);
  const int rounds = std::min(opts.rounds, 2);
  bench::Corpus corpus = bench::build_corpus(pages);
  core::RunConfig cfg = bench::replay_run_config(42);

  // Loads per page across a grid: 9 schemes x rounds, and PARCEL/proxied
  // schemes parse on two engines. 2 engines x 9 schemes x rounds is the
  // upper envelope; use a conservative schemes x rounds x 2.
  const int loads_per_page = 9 * std::max(rounds, 1) * 2;

  std::printf("corpus: %d pages, %d loads/page scan workload\n\n", pages,
              loads_per_page);

  // --- 1. Scan workload: fresh every time vs memoized ------------------
  WorkloadResult fresh = scan_workload(corpus, loads_per_page, false);

  web::ParseCache::instance().clear();
  web::ParseCache::instance().reset_stats();
  WorkloadResult memo = scan_workload(corpus, loads_per_page, true);
  web::ParseCache::Stats ws = web::ParseCache::instance().stats();

  double workload_speedup = fresh.sec / memo.sec;
  std::printf("scan workload (%zu scans):\n", fresh.scans);
  std::printf("  fresh scans:   %.3fs\n", fresh.sec);
  std::printf("  parse cache:   %.3fs  (%.2fx)\n", memo.sec,
              workload_speedup);
  std::printf("  hit rate: %.1f%%  (html %llu/%llu, css %llu/%llu, "
              "js %llu/%llu hits/misses)\n",
              100.0 * ws.hit_rate(),
              static_cast<unsigned long long>(ws.html_hits),
              static_cast<unsigned long long>(ws.html_misses),
              static_cast<unsigned long long>(ws.css_hits),
              static_cast<unsigned long long>(ws.css_misses),
              static_cast<unsigned long long>(ws.js_hits),
              static_cast<unsigned long long>(ws.js_misses));

  // --- 2. End-to-end: the grid on a cold cache, then warm ---------------
  web::ParseCache::instance().clear();
  bench::PageMedians cold_dir =
      bench::run_corpus(core::Scheme::kDir, corpus, rounds, cfg, opts.jobs);
  bench::PageMedians cold_ind = bench::run_corpus(core::Scheme::kParcelInd,
                                                  corpus, rounds, cfg,
                                                  opts.jobs);

  web::ParseCache::instance().reset_stats();
  bench::PageMedians warm_dir =
      bench::run_corpus(core::Scheme::kDir, corpus, rounds, cfg, opts.jobs);
  bench::PageMedians warm_ind = bench::run_corpus(core::Scheme::kParcelInd,
                                                  corpus, rounds, cfg,
                                                  opts.jobs);
  web::ParseCache::Stats es = web::ParseCache::instance().stats();

  bool identical = bench::same_medians(cold_dir, warm_dir) &&
                   bench::same_medians(cold_ind, warm_ind);
  std::printf("\nend-to-end grid (DIR + PARCEL(IND), %d rounds, jobs=%d):\n",
              rounds, opts.jobs);
  std::printf("  warm cache hit rate %.1f%%\n", 100.0 * es.hit_rate());
  std::printf("  medians bitwise-identical cold/warm: %s\n",
              identical ? "yes" : "NO — CACHE CHANGES RESULTS");

  auto hits_misses = [](std::uint64_t hits, std::uint64_t misses) {
    return json::Value::Object{{"hits", hits}, {"misses", misses}};
  };
  const json::Value report{json::Value::Object{
      {"corpus", json::Value::Object{{"pages", pages},
                                     {"loads_per_page", loads_per_page}}},
      {"scan_workload",
       json::Value::Object{
           {"scans", fresh.scans},
           {"fresh_sec", fresh.sec},
           {"cached_sec", memo.sec},
           {"speedup", workload_speedup},
           {"hit_rate", ws.hit_rate()},
           {"per_kind",
            json::Value::Object{
                {"html", hits_misses(ws.html_hits, ws.html_misses)},
                {"css", hits_misses(ws.css_hits, ws.css_misses)},
                {"js", hits_misses(ws.js_hits, ws.js_misses)}}}}},
      {"end_to_end",
       json::Value::Object{
           {"schemes", json::Value::Array{"DIR", "PARCEL(IND)"}},
           {"rounds", rounds},
           {"jobs", opts.jobs},
           {"hit_rate", es.hit_rate()},
           {"identical_results", identical}}},
  }};
  if (!bench::write_json("BENCH_parse_cache.json", report)) return 1;
  std::printf("\nwrote BENCH_parse_cache.json\n");

  if (ws.hit_rate() <= 0.0) {
    std::fprintf(stderr, "error: scan-workload parse cache hit rate is zero\n");
    return 1;
  }
  return identical ? 0 : 1;
}

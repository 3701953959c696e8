// parcel_figures parse-cache: corpus scan workload + end-to-end identity.
//
// The evaluation grid loads every immutable page snapshot once per
// (scheme, round) pair, and each load tokenizes the same HTML/CSS/JS —
// on the client engine and again on the proxy engine. Two measurements:
//
// 1. "scan workload": the corpus's parse work replayed through
//    web::ParseCache for the grid's repetition count, from an empty
//    cache. Its per-kind hit rate is the share of scans the cache
//    removes. No wall time: the whole workload scans in milliseconds, so
//    a timing would measure the host, not the cache.
// 2. "end-to-end": the DIR + PARCEL(IND) grid (core::run_grid) on a cold
//    cache (right after clear(), so every first lookup misses and scans),
//    then warm, asserting the medians stay bitwise identical — the cache
//    must be invisible in results.
//
// Results go to stdout and BENCH_parse_cache.json. Exits 1 when the scan
// workload's hit rate is zero or the cache changes end-to-end results.
#include <cstdio>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "web/html.hpp"
#include "web/parse_cache.hpp"

namespace {

using namespace parcel;
namespace json = bench::json;

/// One grid-load's worth of scanning for `page`, the way the engines do
/// it: tokenize the main document, execute every inline script body,
/// scan every stylesheet, extract references from every script — each
/// through the shared parse cache, so repeat loads hit its artifacts.
std::size_t scan_page_once(const web::WebPage& page) {
  web::ParseCache& cache = web::ParseCache::instance();
  std::size_t scans = 0;
  for (const web::WebObject* obj : page.objects()) {
    if (!obj->content) continue;
    switch (obj->type) {
      case web::ObjectType::kHtml: {
        auto tokens = cache.html(*obj->content, obj->content);
        for (const web::HtmlToken& t : *tokens) {
          if (t.kind == web::HtmlToken::Kind::kInlineScript) {
            (void)cache.js(t.script, tokens.pin);
            ++scans;
          }
        }
        ++scans;
        break;
      }
      case web::ObjectType::kCss:
        (void)cache.css(*obj->content, obj->content);
        ++scans;
        break;
      case web::ObjectType::kJs:
      case web::ObjectType::kJsAsync:
        (void)cache.js(*obj->content, obj->content);
        ++scans;
        break;
      default:
        break;
    }
  }
  return scans;
}

/// The grid re-scans every page `loads_per_page` times (schemes x rounds
/// x client+proxy engines); returns the number of scans.
std::size_t scan_workload(const bench::Corpus& corpus, int loads_per_page) {
  std::size_t scans = 0;
  for (int rep = 0; rep < loads_per_page; ++rep) {
    for (const web::WebPage* page : corpus.replayed) {
      scans += scan_page_once(*page);
    }
  }
  return scans;
}

}  // namespace

int parcel::bench::parse_cache_harness(const BenchOptions& opts) {
  bench::print_header("Parse cache",
                      "corpus scan workload + end-to-end cold/warm identity");

  const int pages = opts.quick ? 6 : std::min(opts.pages, 12);
  const int rounds = std::min(opts.rounds, 2);
  bench::Corpus corpus = bench::build_corpus(pages);
  core::RunConfig cfg = bench::replay_run_config(opts, 42);

  // Loads per page across a grid: 9 schemes x rounds, and PARCEL/proxied
  // schemes parse on two engines. 2 engines x 9 schemes x rounds is the
  // upper envelope; use a conservative schemes x rounds x 2.
  const int loads_per_page = 9 * std::max(rounds, 1) * 2;

  std::printf("corpus: %d pages, %d loads/page scan workload\n\n", pages,
              loads_per_page);

  // --- 1. Scan workload through the cache, from empty -----------------
  web::ParseCache::instance().clear();
  web::ParseCache::instance().reset_stats();
  const std::size_t scans = scan_workload(corpus, loads_per_page);
  web::ParseCache::Stats ws = web::ParseCache::instance().stats();

  std::printf("scan workload (%zu scans):\n", scans);
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
  const std::vector<core::Scheme> schemes{core::Scheme::kDir,
                                          core::Scheme::kParcelInd};
  web::ParseCache::instance().clear();
  const std::vector<core::PageMedians> cold =
      core::run_grid(corpus.replayed, schemes, rounds, cfg, {}, opts.jobs);

  web::ParseCache::instance().reset_stats();
  const std::vector<core::PageMedians> warm =
      core::run_grid(corpus.replayed, schemes, rounds, cfg, {}, opts.jobs);
  web::ParseCache::Stats es = web::ParseCache::instance().stats();

  const bool identical = cold == warm;
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
           {"scans", scans},
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

// Shared machinery for the figure/table reproduction benches: the 34-page
// replayed corpus (§7.2-7.3), run helpers, and table printing.
#pragma once

#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "benchmark/json.hpp"
#include "core/experiment.hpp"
#include "core/parallel_runner.hpp"
#include "lte/radio_link.hpp"
#include "replay/replay_store.hpp"
#include "sim/fault_plan.hpp"
#include "util/stats.hpp"
#include "web/generator.hpp"

namespace parcel::bench {

namespace json = perf::json;

struct Corpus {
  std::vector<web::PageSpec> specs;
  std::vector<std::unique_ptr<web::WebPage>> live_pages;
  replay::ReplayStore store;
  std::vector<const web::WebPage*> replayed;  // normalized snapshots
};

/// Build the evaluation corpus: `pages` sites drawn from the paper's
/// distributions (or one of the ISSUE 10 PageMix families), recorded
/// through the replay store.
Corpus build_corpus(int pages, std::uint64_t seed = 2014,
                    web::PageMix mix = web::PageMix::kAlexa34);

/// Records `live` into `store` and returns its normalized snapshot, which
/// `store` owns.
const web::WebPage& replay_page(replay::ReplayStore& store,
                                const web::WebPage& live);

/// Parsed --fade value: `off` leaves both fields unset (no fading),
/// `ar1` selects the seeded stochastic fade of live mode (§8.4), and a
/// KIND[:key=val,...] spec yields the deterministic lte::FadeSpec
/// profile the adaptive benches sweep.
struct FadeOption {
  bool ar1 = false;
  std::optional<lte::FadeSpec> profile;
};

struct BenchOptions {
  int pages = 34;   // paper's page count
  int rounds = 3;   // kept small for bench runtime; raise via --rounds
  /// Worker threads for experiment fan-out; defaults to every hardware
  /// thread. --jobs 1 reproduces the historical strictly-serial benches
  /// (results are bitwise identical either way).
  int jobs = core::default_jobs();
  bool quick = false;
  /// Fleet knobs (the fleet harness): concurrent client sessions, proxy
  /// compute workers, and the arrival-process seed.
  int clients = 16;
  int workers = 2;
  std::uint64_t arrival_seed = 2014;
  /// Session count for the fleet harness's streaming leg. Large by
  /// design — streaming mode never materializes per-session results, so
  /// this scales far past --clients.
  int stream_clients = 100000;
  /// Sharded-fleet knobs (the fleet harness): the largest shard count
  /// in the N-shards sweep, and the L2 backplane transfer
  /// cost in milliseconds per MiB moved (the kTransfer byte rate is
  /// derived as 1 MiB / (l2_cost_ms_per_mib / 1000)). 0 keeps the task's
  /// base cost only.
  int shards = 8;
  double l2_cost_ms_per_mib = 4.0;
  /// Fault plan replay_run_config stamps onto every run config built from
  /// these options. Off by default, so the BENCH_*.json baselines stay
  /// byte-comparable across builds.
  sim::FaultPlan faults;
  /// Adaptive-bundling knobs (the adaptive harness). --fade SPEC picks
  /// the radio bandwidth trajectory, --mix NAME picks the PageMix family
  /// handed to build_corpus.
  FadeOption fade;
  web::PageMix mix = web::PageMix::kAlexa34;
};

/// Parse --pages N / --rounds N / --jobs N / --clients N / --workers N /
/// --shards N / --l2-cost MS_PER_MIB / --arrival-seed N / --quick /
/// --faults SPEC / --fade SPEC / --mix NAME from argv
/// (see sim::FaultPlan::parse for the fault grammar; "off" disables).
/// --quick means --pages 10 --rounds 1 unless either is given explicitly,
/// before or after it. Malformed values abort with a clear error on
/// stderr. Arguments that do not start with '-' are appended to
/// `positional` when it is given and are unknown flags otherwise.
BenchOptions parse_options(int argc, char** argv,
                           std::vector<std::string>* positional = nullptr);

/// Strict flag-value parsers behind parse_options, exposed so tests can
/// assert the reject-garbage contract without spawning a process. All
/// throw std::invalid_argument (naming `flag`) on garbage, trailing
/// junk, empty strings, out-of-range values, or overflow; parse_options
/// converts the throw into an exit(2) usage error.
int parse_positive_int(const char* flag, const char* text);
std::uint64_t parse_u64(const char* flag, const char* text);
/// Finite decimal >= 0 (e.g. --l2-cost); rejects negatives (including
/// "-0"), inf/nan spellings, hex floats, and trailing junk.
double parse_nonneg_double(const char* flag, const char* text);
/// `--fade` grammar: `off` | `ar1` | KIND[:key=val,...] with KIND one of
/// pulse|ramp|step; keys high/low/duty are plain fractions and
/// period/at/step/horizon are seconds, all parsed with
/// parse_nonneg_double's strictness. Unknown kinds or keys, empty or
/// valueless segments, and specs rejected by lte::FadeSpec::validate()
/// all throw.
FadeOption parse_fade(const char* flag, const char* text);
/// One of web::to_string(PageMix)'s names:
/// alexa34|ad-heavy|spa|large-object.
web::PageMix parse_page_mix(const char* flag, const char* text);

/// Default controlled-replay run configuration (§7.2: no fading in the
/// controlled comparisons; variability handled by seeds). Carries
/// `opts.faults`, the --faults plan.
core::RunConfig replay_run_config(const BenchOptions& opts,
                                  std::uint64_t seed);

void print_header(const char* figure, const char* caption);

/// Writes `doc.dump()` plus a newline to `path` (the BENCH_*.json
/// reports). On failure prints "error: cannot write PATH" to stderr and
/// returns false.
bool write_json(const std::string& path, const json::Value& doc);
/// Reads and parses one JSON file; throws std::invalid_argument naming
/// `path` when it cannot be read or is malformed.
json::Value read_json(const std::string& path);

/// parcel_figures' harness entries, one translation unit each
/// (bench/adaptive.cpp, faults.cpp, fleet.cpp, parse_cache.cpp). Each
/// prints its report, writes its BENCH_*.json into the working directory,
/// and returns 0, or 1 when one of its gates fails.
int adaptive_harness(const BenchOptions& opts);
int faults_harness(const BenchOptions& opts);
int fleet_harness(const BenchOptions& opts);
int parse_cache_harness(const BenchOptions& opts);

}  // namespace parcel::bench

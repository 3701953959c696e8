#include "bench/common.hpp"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace parcel::bench {

namespace {

// Plan captured by parse_options and stamped onto every run config the
// helpers below build, so a single --faults flag reaches all benches
// without per-bench plumbing. Set before any experiment fan-out starts.
sim::FaultPlan g_fault_plan;

}  // namespace

Corpus build_corpus(int pages, std::uint64_t seed, web::PageMix mix) {
  Corpus corpus;
  web::PageGenerator gen(seed);
  corpus.specs = gen.mix_specs(mix, pages);
  for (const auto& spec : corpus.specs) {
    corpus.live_pages.push_back(
        std::make_unique<web::WebPage>(web::PageGenerator::generate(spec)));
    corpus.replayed.push_back(
        &replay_page(corpus.store, *corpus.live_pages.back()));
  }
  return corpus;
}

const web::WebPage& replay_page(replay::ReplayStore& store,
                                const web::WebPage& live) {
  store.record(live);
  return *store.find(live.main_url().str());
}

// Strict positive-integer parse; anything else (garbage, trailing junk,
// zero, negatives, overflow) is rejected, not silently defaulted.
int parse_positive_int(const char* flag, const char* text) {
  char* end = nullptr;
  errno = 0;
  long v = std::strtol(text, &end, 10);
  if (errno != 0 || end == text || *end != '\0' || v <= 0 || v > 1'000'000) {
    throw std::invalid_argument(std::string(flag) +
                                " expects a positive integer, got '" + text +
                                "'");
  }
  return static_cast<int>(v);
}

// Strict non-negative finite decimal parse (costs; 0 is legal). strtod
// accepts "inf"/"nan"/hex-float spellings and leading signs, none of
// which make sense for a cost knob, so those are rejected explicitly.
double parse_nonneg_double(const char* flag, const char* text) {
  char* end = nullptr;
  errno = 0;
  double v = std::strtod(text, &end);
  bool plain_decimal =
      text[0] != '\0' && (std::isdigit(static_cast<unsigned char>(text[0])) ||
                          text[0] == '.');
  // strtod happily reads "0x10" as a hex float; a cost knob should not.
  if (text[0] == '0' && (text[1] == 'x' || text[1] == 'X')) {
    plain_decimal = false;
  }
  if (errno != 0 || end == text || *end != '\0' || !plain_decimal ||
      !std::isfinite(v) || v < 0.0) {
    throw std::invalid_argument(std::string(flag) +
                                " expects a non-negative number, got '" +
                                text + "'");
  }
  return v;
}

// Strict --fade grammar: off | ar1 | KIND[:key=val,...]. Every numeric
// value goes through parse_nonneg_double, so signs, inf/nan, hex floats,
// and trailing junk are rejected there; the structural junk (unknown
// kinds/keys, empty segments, missing '=') is rejected here; and the
// semantic junk (high < low, duty > 1, zero durations) is rejected by
// lte::FadeSpec::validate().
FadeOption parse_fade(const char* flag, const char* text) {
  FadeOption opt;
  const std::string s(text);
  if (s == "off") return opt;
  if (s == "ar1") {
    opt.ar1 = true;
    return opt;
  }
  const std::size_t colon = s.find(':');
  const std::string kind = s.substr(0, colon);
  lte::FadeSpec spec;
  if (kind == "pulse") {
    spec.kind = lte::FadeSpec::Kind::kPulse;
  } else if (kind == "ramp") {
    spec.kind = lte::FadeSpec::Kind::kRamp;
  } else if (kind == "step") {
    spec.kind = lte::FadeSpec::Kind::kStep;
  } else {
    throw std::invalid_argument(std::string(flag) + ": unknown fade kind '" +
                                kind + "' (expected off|ar1|pulse|ramp|step)");
  }
  if (colon != std::string::npos) {
    const std::string rest = s.substr(colon + 1);
    std::size_t pos = 0;
    while (true) {
      const std::size_t comma = rest.find(',', pos);
      const std::string kv =
          rest.substr(pos, comma == std::string::npos ? std::string::npos
                                                      : comma - pos);
      const std::size_t eq = kv.find('=');
      if (eq == std::string::npos || eq == 0 || eq + 1 >= kv.size()) {
        throw std::invalid_argument(std::string(flag) +
                                    ": expected key=value, got '" + kv + "'");
      }
      const std::string key = kv.substr(0, eq);
      const double v = parse_nonneg_double(flag, kv.substr(eq + 1).c_str());
      if (key == "high") {
        spec.high = v;
      } else if (key == "low") {
        spec.low = v;
      } else if (key == "duty") {
        spec.duty = v;
      } else if (key == "period") {
        spec.period = util::Duration::seconds(v);
      } else if (key == "at") {
        spec.at = util::Duration::seconds(v);
      } else if (key == "step") {
        spec.step = util::Duration::seconds(v);
      } else if (key == "horizon") {
        spec.horizon = util::Duration::seconds(v);
      } else {
        throw std::invalid_argument(std::string(flag) +
                                    ": unknown fade key '" + key + "'");
      }
      if (comma == std::string::npos) break;
      pos = comma + 1;
    }
  }
  spec.validate();
  opt.profile = spec;
  return opt;
}

// Strict page-mix name parse (--mix): exactly the to_string names.
web::PageMix parse_page_mix(const char* flag, const char* text) {
  for (web::PageMix mix :
       {web::PageMix::kAlexa34, web::PageMix::kAdHeavy, web::PageMix::kSpa,
        web::PageMix::kLargeObject}) {
    if (web::to_string(mix) == text) return mix;
  }
  throw std::invalid_argument(
      std::string(flag) +
      " expects one of alexa34|ad-heavy|spa|large-object, got '" + text + "'");
}

// Strict unsigned 64-bit parse (seeds; 0 is legal).
std::uint64_t parse_u64(const char* flag, const char* text) {
  char* end = nullptr;
  errno = 0;
  unsigned long long v = std::strtoull(text, &end, 10);
  if (errno != 0 || end == text || *end != '\0' ||
      (text[0] != '\0' && (text[0] == '-' || text[0] == '+'))) {
    throw std::invalid_argument(std::string(flag) +
                                " expects an unsigned integer, got '" + text +
                                "'");
  }
  return v;
}

namespace {

// parse_options keeps the historical CLI contract: a malformed value is a
// usage error on stderr with exit code 2.
int parse_positive_or_die(const char* flag, const char* text) {
  try {
    return parse_positive_int(flag, text);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    std::exit(2);
  }
}

std::uint64_t parse_u64_or_die(const char* flag, const char* text) {
  try {
    return parse_u64(flag, text);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    std::exit(2);
  }
}

double parse_nonneg_double_or_die(const char* flag, const char* text) {
  try {
    return parse_nonneg_double(flag, text);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    std::exit(2);
  }
}

}  // namespace

namespace {

// Fetches the value following a `--flag`; a trailing flag with no value
// is a usage error, not a silent no-op.
const char* flag_value(const char* flag, int argc, char** argv, int& i) {
  if (i + 1 >= argc) {
    std::fprintf(stderr, "error: %s expects a value\n", flag);
    std::exit(2);
  }
  return argv[++i];
}

}  // namespace

BenchOptions parse_options(int argc, char** argv,
                           std::vector<std::string>* positional) {
  BenchOptions opts;
  bool pages_given = false, rounds_given = false;
  for (int i = 1; i < argc; ++i) {
    if (positional != nullptr && argv[i][0] != '-') {
      positional->push_back(argv[i]);
    } else if (std::strcmp(argv[i], "--pages") == 0) {
      opts.pages =
          parse_positive_or_die("--pages", flag_value("--pages", argc, argv, i));
      pages_given = true;
    } else if (std::strcmp(argv[i], "--rounds") == 0) {
      opts.rounds = parse_positive_or_die(
          "--rounds", flag_value("--rounds", argc, argv, i));
      rounds_given = true;
    } else if (std::strcmp(argv[i], "--jobs") == 0) {
      opts.jobs =
          parse_positive_or_die("--jobs", flag_value("--jobs", argc, argv, i));
    } else if (std::strcmp(argv[i], "--clients") == 0) {
      opts.clients = parse_positive_or_die(
          "--clients", flag_value("--clients", argc, argv, i));
    } else if (std::strcmp(argv[i], "--workers") == 0) {
      opts.workers = parse_positive_or_die(
          "--workers", flag_value("--workers", argc, argv, i));
    } else if (std::strcmp(argv[i], "--shards") == 0) {
      opts.shards = parse_positive_or_die(
          "--shards", flag_value("--shards", argc, argv, i));
    } else if (std::strcmp(argv[i], "--l2-cost") == 0) {
      opts.l2_cost_ms_per_mib = parse_nonneg_double_or_die(
          "--l2-cost", flag_value("--l2-cost", argc, argv, i));
    } else if (std::strcmp(argv[i], "--stream-clients") == 0) {
      opts.stream_clients = parse_positive_or_die(
          "--stream-clients", flag_value("--stream-clients", argc, argv, i));
    } else if (std::strcmp(argv[i], "--arrival-seed") == 0) {
      opts.arrival_seed = parse_u64_or_die(
          "--arrival-seed", flag_value("--arrival-seed", argc, argv, i));
    } else if (std::strcmp(argv[i], "--quick") == 0) {
      opts.quick = true;
    } else if (std::strcmp(argv[i], "--fade") == 0) {
      const char* spec = flag_value("--fade", argc, argv, i);
      try {
        opts.fade = parse_fade("--fade", spec);
      } catch (const std::invalid_argument& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        std::exit(2);
      }
    } else if (std::strcmp(argv[i], "--mix") == 0) {
      const char* name = flag_value("--mix", argc, argv, i);
      try {
        opts.mix = parse_page_mix("--mix", name);
      } catch (const std::invalid_argument& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        std::exit(2);
      }
    } else if (std::strcmp(argv[i], "--faults") == 0) {
      const char* spec = flag_value("--faults", argc, argv, i);
      try {
        opts.faults = sim::FaultPlan::parse(spec);
      } catch (const std::invalid_argument& e) {
        std::fprintf(stderr, "error: --faults: %s\n", e.what());
        std::exit(2);
      }
    } else {
      std::fprintf(stderr, "error: unknown flag %s\n", argv[i]);
      std::exit(2);
    }
  }
  if (opts.quick) {
    if (!pages_given) opts.pages = 10;
    if (!rounds_given) opts.rounds = 1;
  }
  g_fault_plan = opts.faults;
  return opts;
}

core::RunConfig replay_run_config(std::uint64_t seed) {
  core::RunConfig cfg;
  cfg.seed = seed;
  cfg.testbed.faults = g_fault_plan;
  return cfg;
}

bool same_medians(const PageMedians& a, const PageMedians& b) {
  return a.olt_sec == b.olt_sec && a.tlt_sec == b.tlt_sec &&
         a.radio_j == b.radio_j && a.cr_j == b.cr_j &&
         a.requests == b.requests;
}

bool same_results(const std::vector<core::RunResult>& a,
                  const std::vector<core::RunResult>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const core::RunResult& x = a[i];
    const core::RunResult& y = b[i];
    if (x.ok != y.ok || x.olt.sec() != y.olt.sec() ||
        x.tlt.sec() != y.tlt.sec() ||
        x.radio.total.j() != y.radio.total.j() ||
        x.downlink_bytes != y.downlink_bytes ||
        x.uplink_bytes != y.uplink_bytes || x.bundles != y.bundles ||
        x.retransmits != y.retransmits || x.fault_drops != y.fault_drops ||
        x.fault_deferrals != y.fault_deferrals ||
        x.direct_fetches != y.direct_fetches || x.degraded != y.degraded ||
        x.ctrl_retunes != y.ctrl_retunes ||
        x.ctrl_goodput_bps != y.ctrl_goodput_bps ||
        x.ctrl_rtt_us != y.ctrl_rtt_us ||
        x.ctrl_threshold != y.ctrl_threshold) {
      return false;
    }
  }
  return true;
}

PageMedians run_corpus(core::Scheme scheme, const Corpus& corpus, int rounds,
                       const core::RunConfig& base, int jobs) {
  // The (page × round) grid is embarrassingly parallel: each run derives
  // its seeds from (base, p, r) below and builds a private testbed. The
  // corpus is shared read-only across workers. Results land in grid slots,
  // so the per-page medians are bitwise identical for any jobs value.
  std::vector<core::ExperimentTask> tasks;
  tasks.reserve(corpus.replayed.size() * static_cast<std::size_t>(rounds));
  for (std::size_t p = 0; p < corpus.replayed.size(); ++p) {
    for (int r = 0; r < rounds; ++r) {
      core::RunConfig cfg = base;
      cfg.seed = base.seed + 101ULL * p + 13ULL * r + 1;
      if (cfg.testbed.fade) {
        cfg.testbed.fade_seed = cfg.seed * 7 + 3;
      }
      tasks.push_back(core::ExperimentTask{scheme, corpus.replayed[p], cfg});
    }
  }
  std::vector<core::RunResult> results = core::run_experiments(tasks, jobs);

  PageMedians out;
  for (std::size_t p = 0; p < corpus.replayed.size(); ++p) {
    util::Summary olt, tlt, radio, cr, reqs;
    for (int r = 0; r < rounds; ++r) {
      const core::RunResult& result =
          results[p * static_cast<std::size_t>(rounds) +
                  static_cast<std::size_t>(r)];
      olt.add(result.olt.sec());
      tlt.add(result.tlt.sec());
      radio.add(result.radio.total.j());
      cr.add(result.radio.cr.j());
      reqs.add(static_cast<double>(result.radio_http_requests));
    }
    out.olt_sec.push_back(olt.median());
    out.tlt_sec.push_back(tlt.median());
    out.radio_j.push_back(radio.median());
    out.cr_j.push_back(cr.median());
    out.requests.push_back(reqs.median());
    out.page_bytes.push_back(
        static_cast<double>(corpus.replayed[p]->total_bytes()));
  }
  return out;
}

void print_header(const char* figure, const char* caption) {
  std::printf("\n==================================================\n");
  std::printf("%s — %s\n", figure, caption);
  std::printf("==================================================\n");
}

bool write_json(const std::string& path, const json::Value& doc) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << doc.dump() << '\n';
  out.close();
  if (!out) {
    std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
    return false;
  }
  return true;
}

json::Value read_json(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::invalid_argument("cannot read " + path);
  std::ostringstream text;
  text << in.rdbuf();
  try {
    return json::parse(text.str());
  } catch (const std::invalid_argument& e) {
    throw std::invalid_argument(path + ": " + e.what());
  }
}

}  // namespace parcel::bench

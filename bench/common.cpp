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

// Fetches the value following a `--flag`; a trailing flag with no value
// is a usage error, not a silent no-op.
const char* flag_value(const char* flag, int argc, char** argv, int& i) {
  if (i + 1 >= argc) {
    std::fprintf(stderr, "error: %s expects a value\n", flag);
    std::exit(2);
  }
  return argv[++i];
}

// sim::FaultPlan::parse with the flag named in its error message.
sim::FaultPlan parse_fault_plan(const char* flag, const char* text) {
  try {
    return sim::FaultPlan::parse(text);
  } catch (const std::invalid_argument& e) {
    throw std::invalid_argument(std::string(flag) + ": " + e.what());
  }
}

}  // namespace

BenchOptions parse_options(int argc, char** argv,
                           std::vector<std::string>* positional) {
  BenchOptions opts;
  bool pages_given = false, rounds_given = false;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    // The value following `arg`, read by `parse(flag, text)`. parse_options
    // keeps the historical CLI contract: a malformed value is a usage error
    // on stderr with exit code 2.
    const auto value = [&](auto parse) {
      const char* text = flag_value(arg, argc, argv, i);
      try {
        return parse(arg, text);
      } catch (const std::invalid_argument& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        std::exit(2);
      }
    };
    if (positional != nullptr && arg[0] != '-') {
      positional->push_back(arg);
    } else if (std::strcmp(arg, "--pages") == 0) {
      opts.pages = value(parse_positive_int);
      pages_given = true;
    } else if (std::strcmp(arg, "--rounds") == 0) {
      opts.rounds = value(parse_positive_int);
      rounds_given = true;
    } else if (std::strcmp(arg, "--jobs") == 0) {
      opts.jobs = value(parse_positive_int);
    } else if (std::strcmp(arg, "--clients") == 0) {
      opts.clients = value(parse_positive_int);
    } else if (std::strcmp(arg, "--workers") == 0) {
      opts.workers = value(parse_positive_int);
    } else if (std::strcmp(arg, "--shards") == 0) {
      opts.shards = value(parse_positive_int);
    } else if (std::strcmp(arg, "--l2-cost") == 0) {
      opts.l2_cost_ms_per_mib = value(parse_nonneg_double);
    } else if (std::strcmp(arg, "--stream-clients") == 0) {
      opts.stream_clients = value(parse_positive_int);
    } else if (std::strcmp(arg, "--arrival-seed") == 0) {
      opts.arrival_seed = value(parse_u64);
    } else if (std::strcmp(arg, "--quick") == 0) {
      opts.quick = true;
    } else if (std::strcmp(arg, "--fade") == 0) {
      opts.fade = value(parse_fade);
    } else if (std::strcmp(arg, "--mix") == 0) {
      opts.mix = value(parse_page_mix);
    } else if (std::strcmp(arg, "--faults") == 0) {
      opts.faults = value(parse_fault_plan);
    } else {
      std::fprintf(stderr, "error: unknown flag %s\n", arg);
      std::exit(2);
    }
  }
  if (opts.quick) {
    if (!pages_given) opts.pages = 10;
    if (!rounds_given) opts.rounds = 1;
  }
  return opts;
}

core::RunConfig replay_run_config(const BenchOptions& opts,
                                  std::uint64_t seed) {
  core::RunConfig cfg;
  cfg.seed = seed;
  cfg.testbed.faults = opts.faults;
  return cfg;
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

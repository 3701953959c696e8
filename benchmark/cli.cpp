#include "cli.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdlib>

namespace parcel::perf {

namespace {

std::uint64_t parse_seed(const std::string& text) {
  // strtoull accepts signs and leading blanks; a seed is plain digits.
  if (text.empty() || text.size() > 20 ||
      !std::all_of(text.begin(), text.end(),
                   [](char c) { return c >= '0' && c <= '9'; })) {
    throw UsageError("--seed expects an unsigned integer, got '" + text + "'");
  }
  errno = 0;
  const unsigned long long v = std::strtoull(text.c_str(), nullptr, 10);
  if (errno == ERANGE || v > kMaxSeed) {
    throw UsageError("--seed must be at most 2^53, got '" + text + "'");
  }
  return v;
}

int parse_seconds(const std::string& text) {
  if (text.empty() || text.size() > 4 ||
      !std::all_of(text.begin(), text.end(),
                   [](char c) { return c >= '0' && c <= '9'; })) {
    throw UsageError("--seconds expects a whole number, got '" + text + "'");
  }
  const int v = std::stoi(text);
  if (v < 1 || v > 3600) {
    throw UsageError("--seconds must be within 1..3600, got " + text);
  }
  return v;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"paper-grid", "fresh-pages",
                                                 "live-faults", "fleet-stream"};
  return names;
}

Options parse_cli(const std::vector<std::string>& args) {
  Options opts;
  bool have_workload = false;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& flag = args[i];
    auto value = [&]() -> const std::string& {
      if (i + 1 >= args.size()) throw UsageError(flag + " expects a value");
      return args[++i];
    };
    if (flag == "--workload") {
      opts.workload = value();
      const auto& names = workload_names();
      if (std::find(names.begin(), names.end(), opts.workload) == names.end()) {
        throw UsageError("unknown workload '" + opts.workload +
                         "' (expected paper-grid|fresh-pages|live-faults|fleet-stream)");
      }
      have_workload = true;
    } else if (flag == "--seed") {
      opts.seed = parse_seed(value());
    } else if (flag == "--seconds") {
      opts.seconds = parse_seconds(value());
    } else if (flag == "--out") {
      opts.out = value();
    } else if (flag == "--trace") {
      opts.trace = value();
    } else if (flag == "--compare") {
      opts.compare = true;
      opts.parent_dir = value();
      opts.change_dir = value();
    } else {
      throw UsageError("unexpected argument '" + flag + "'");
    }
  }
  if (opts.compare) {
    if (have_workload) throw UsageError("--compare takes no --workload");
    return opts;
  }
  if (!have_workload) throw UsageError("--workload is required");
  return opts;
}

std::vector<std::string> forbidden_env() {
  std::vector<std::string> set;
  for (const char* name :
       {"PARCEL_ARENA", "PARCEL_PARSE_CACHE", "PARCEL_CTRL", "PARCEL_FAULT_SEED"}) {
    if (std::getenv(name) != nullptr) set.emplace_back(name);
  }
  return set;
}

}  // namespace parcel::perf

// Command line of parcel_bench:
//
//   parcel_bench --workload NAME --seed N [--seconds S] [--out FILE.json]
//                [--trace FILE]
//   parcel_bench --compare PARENT_DIR CHANGE_DIR
//
// Anything else — an unknown flag or workload, a malformed number, a
// missing value, a stray argument — is a usage error (exit 2).
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace parcel::perf {

struct UsageError : std::invalid_argument {
  using std::invalid_argument::invalid_argument;
};

inline constexpr std::uint64_t kDefaultSeed = 2014;
/// Result files hold the seed as a JSON number, which is exact up to 2^53.
inline constexpr std::uint64_t kMaxSeed = std::uint64_t{1} << 53;
inline constexpr int kDefaultSeconds = 20;

struct Options {
  bool compare = false;
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  int seconds = kDefaultSeconds;
  std::string out;    // result JSON; empty = none
  std::string trace;  // Chrome trace file; empty = untraced run
  std::string parent_dir;
  std::string change_dir;
};

/// The four workload names, in the order BENCHMARK.json lists them.
[[nodiscard]] const std::vector<std::string>& workload_names();

/// Throws UsageError with a one-line reason.
[[nodiscard]] Options parse_cli(const std::vector<std::string>& args);

/// PARCEL_* kill switches present in the environment. A run with any of
/// them set would measure a different program, so the benchmark refuses.
[[nodiscard]] std::vector<std::string> forbidden_env();

}  // namespace parcel::perf

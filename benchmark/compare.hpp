// --compare PARENT_DIR CHANGE_DIR: reads the --out result files of two sets
// of runs and prints, per (workload, end-to-end metric), each side's median
// and quartiles, the change/parent ratio, the metric's bound from
// BENCHMARK.json and a verdict:
//
//   worse       the change's median is worse than the parent's by more than
//               the bound;
//   better      the median gain exceeds the parent's own quartile spread and
//               the change wins at least 9 of 10 runs paired by seed;
//   unresolved  the run-to-run spread exceeds the bound and not every
//               change run beats every parent run;
//   same        otherwise.
//
// Runs paired by seed must carry the same output digest on both sides.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "json.hpp"

namespace parcel::perf {

struct MetricSpec {
  std::string name;
  std::string unit;
  bool higher_is_better = false;
  double bound = 0.0;  // allowed worsening, as a share of the parent median
};

enum class Verdict { kBetter, kSame, kWorse, kUnresolved };
[[nodiscard]] std::string_view to_string(Verdict v);

/// One side's values of one metric, each with the seed of its run.
using SeededValues = std::vector<std::pair<std::uint64_t, double>>;

[[nodiscard]] Verdict judge(const MetricSpec& spec, const SeededValues& parent,
                            const SeededValues& change);

/// The "end_to_end" list of a BENCHMARK.json document; throws
/// std::invalid_argument when it is missing or malformed.
[[nodiscard]] std::vector<MetricSpec> read_metric_specs(const json::Value& benchmark);

/// Runs the comparison, reading bounds from `benchmark_json`. Returns the
/// exit code: 0, 1 when any row is worse or a digest differs, 2 when an
/// input cannot be read.
[[nodiscard]] int run_compare(const std::string& parent_dir, const std::string& change_dir,
                              const std::string& benchmark_json, std::FILE* out);

}  // namespace parcel::perf

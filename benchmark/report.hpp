// The result of one workload run: every metric by name with its unit,
// the correctness verdict, and the three ways it is written out — the
// human-readable listing, the --out JSON file, and the one-line summary
// that ends standard output.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "json.hpp"

namespace parcel::perf {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The end-to-end metrics, in BENCHMARK.json order. Every untraced run of
/// every workload reports all of them.
[[nodiscard]] const std::vector<std::string>& end_to_end_names();
/// The per-layer metrics BENCHMARK.json lists. Every traced run of every
/// workload reports all of them; the result file may carry more.
[[nodiscard]] const std::vector<std::string>& per_layer_names();

struct RunReport {
  std::string workload;
  std::uint64_t seed = 0;
  int seconds = 0;
  bool traced = false;
  unsigned hardware_threads = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string digest;                   // hex over the digest window
  std::string digest_check = "unpinned";  // match | mismatch | unpinned
  std::string determinism = "unchecked";  // ok | mismatch | unchecked
  std::vector<std::string> failures;    // the first few check failures
  std::string hang;                     // the hung op, when the watchdog fired
  std::vector<Metric> e2e;
  std::vector<Metric> layers;

  [[nodiscard]] bool correct() const;
  /// The --out file: everything above.
  [[nodiscard]] json::Value to_json() const;
  /// {"correct", "attempted", "failed", "metrics"} with the end-to-end
  /// metrics (untraced) or the BENCHMARK.json per-layer metrics (traced).
  [[nodiscard]] std::string summary_line() const;
  void print(std::FILE* out) const;
};

}  // namespace parcel::perf

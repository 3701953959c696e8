// Order statistics shared by the run report and --compare.
#pragma once

#include <cstddef>
#include <vector>

namespace parcel::perf {

/// Nearest-rank percentile, p in (0, 100]. Empty input yields 0.
[[nodiscard]] double percentile(std::vector<double> samples, double p);

/// A tail percentile is reported only when at least ten samples lie beyond
/// it, so a p99 needs n >= 1000. The median (p <= 50) is always reportable.
[[nodiscard]] bool tail_reportable(std::size_t n, double p);

struct Quartiles {
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
  /// Interquartile distance as a share of the median (0 when the median is).
  [[nodiscard]] double spread() const;
};

/// Python's statistics.quantiles(values, n=4) (method "exclusive"), the
/// rule the acceptance runs use. One value yields that value three times.
[[nodiscard]] Quartiles quartiles(std::vector<double> values);

[[nodiscard]] double mean(const std::vector<double>& values);

}  // namespace parcel::perf

#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace parcel::perf {

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(samples.size()));
  const auto idx = static_cast<std::size_t>(std::max(rank, 1.0)) - 1;
  return samples[std::min(idx, samples.size() - 1)];
}

bool tail_reportable(std::size_t n, double p) {
  if (p <= 50.0) return n > 0;
  // n * (100 - p) / 100 >= 10, kept in integer-friendly form so p99 at
  // exactly n = 1000 is not lost to rounding.
  return static_cast<double>(n) * (100.0 - p) >= 1000.0 - 1e-9;
}

double Quartiles::spread() const {
  return median == 0.0 ? 0.0 : (q3 - q1) / std::fabs(median);
}

Quartiles quartiles(std::vector<double> values) {
  Quartiles q;
  if (values.empty()) return q;
  std::sort(values.begin(), values.end());
  const std::size_t ld = values.size();
  if (ld == 1) {
    q.q1 = q.median = q.q3 = values[0];
    return q;
  }
  const std::size_t m = ld + 1;
  double cuts[3] = {0.0, 0.0, 0.0};
  for (std::size_t i = 1; i <= 3; ++i) {
    std::size_t j = i * m / 4;
    j = std::clamp<std::size_t>(j, 1, ld - 1);
    const double delta =
        static_cast<double>(i * m) - static_cast<double>(j * 4);
    cuts[i - 1] = (values[j - 1] * (4.0 - delta) + values[j] * delta) / 4.0;
  }
  q.q1 = cuts[0];
  q.median = cuts[1];
  q.q3 = cuts[2];
  return q;
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

}  // namespace parcel::perf

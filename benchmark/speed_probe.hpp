// Machine-speed probe. On a shared host the same binary runs 10-30 %
// slower while neighbours are busy, for seconds at a time, which swamps
// the differences a benchmark exists to resolve. The probe is a fixed unit
// of work owned by the benchmark: a sort, hash-map inserts and lookups,
// and string building, the branchy, pointer-chasing mix the simulator
// itself runs. Its map and string draw from an arena the probe allocates
// once, so it never touches the process heap, and a change to the
// simulator's heap use or footprint cannot move it. (It still shares the
// CPU caches with the simulator.) Timed around each segment of ops, it
// measures how fast the machine runs right then, and the segment's
// timings are scaled to a machine where one unit takes kReferenceMs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace parcel::perf {

class SpeedProbe {
 public:
  /// One unit's wall time, roughly, on the 4-vCPU 2.1 GHz Xeon VM the
  /// benchmark was calibrated on (median of the samples there: 10.0-10.5).
  static constexpr double kReferenceMs = 10.0;

  SpeedProbe();

  /// Runs one unit of work and returns its wall milliseconds.
  double sample_ms();

 private:
  std::vector<std::uint64_t> keys_;
  std::vector<std::byte> arena_;  // backs every allocation a sample makes
};

/// Scales op timings by the probe samples that bracket them. Ops are
/// grouped into segments; a sample is taken when a segment opens and when
/// it closes, and the segment's times are multiplied by
/// kReferenceMs / mean(opening, closing sample).
class SpeedScale {
 public:
  explicit SpeedScale(SpeedProbe& probe) : probe_(probe) {}

  /// Takes the opening sample of the first segment.
  void start();
  /// Closes the open segment and returns its scale factor; the closing
  /// sample opens the next segment.
  double close_segment();
  /// Every sample taken so far.
  [[nodiscard]] const std::vector<double>& samples() const { return samples_; }

 private:
  SpeedProbe& probe_;
  double open_ms_ = 0.0;
  std::vector<double> samples_;
};

}  // namespace parcel::perf

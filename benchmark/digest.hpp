// Output digest: FNV-1a over the simulated outcome of each op, folded in
// op order. Two builds that simulate the same thing agree on it bit for
// bit; any change to a simulated number or to one byte of a capture moves
// it.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "core/experiment.hpp"
#include "fleet/fleet_runner.hpp"

namespace parcel::perf {

class Fnv1a {
 public:
  void bytes(const void* data, std::size_t n);
  void u64(std::uint64_t v);
  /// Folds the IEEE-754 bit pattern, so -0.0 and 0.0 differ.
  void f64(double v);
  void str(std::string_view s);
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 14695981039346656037ULL;
};

/// One page load: scheme, OLT, TLT, radio joules, downlink bytes, events
/// executed and the serialized capture.
void fold_run(Fnv1a& digest, const core::RunResult& r);

/// One streaming fleet run: admission counts, the fleet-adjusted
/// distributions, energy, and the store and compute totals.
void fold_fleet(Fnv1a& digest, const fleet::FleetMetrics& m);

/// "0x" followed by 16 lowercase hex digits.
[[nodiscard]] std::string hex(std::uint64_t v);

}  // namespace parcel::perf

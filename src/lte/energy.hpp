// ARO-equivalent radio energy analysis (paper §7.1).
//
// The paper computes radio energy by replaying the device packet capture
// through a pre-computed RRC/power model ("fine-grained simulation on the
// packet traces"). EnergyAnalyzer does the same: it reconstructs the RRC
// state timeline implied by a trace's activity instants and integrates
// per-state power. Keeping this separate from the live radio means the
// energy accounting method is identical for every scheme, whatever the
// scheme did online — exactly the property the paper's methodology needs.
#pragma once

#include <vector>

#include "lte/rrc.hpp"
#include "trace/packet_trace.hpp"
#include "util/units.hpp"

namespace parcel::lte {

using util::Energy;

struct StateInterval {
  TimePoint begin;
  TimePoint end;
  RrcState state = RrcState::kIdle;

  [[nodiscard]] Duration duration() const { return end - begin; }
  bool operator==(const StateInterval&) const = default;
};

struct EnergyReport {
  std::vector<StateInterval> timeline;

  Energy total = Energy::zero();
  Energy cr = Energy::zero();
  Energy short_drx = Energy::zero();
  Energy long_drx = Energy::zero();
  Energy idle = Energy::zero();
  Energy promotion = Energy::zero();

  Duration time_cr = Duration::zero();
  Duration time_short_drx = Duration::zero();
  Duration time_long_drx = Duration::zero();
  Duration time_idle = Duration::zero();
  Duration time_promotion = Duration::zero();

  /// CR <-> DRX transitions (paper Fig 7a: DIR 22 vs PARCEL 7).
  std::size_t cr_drx_transitions = 0;
  std::size_t promotions_from_idle = 0;
  std::size_t promotions_from_drx = 0;

  /// Energy of all DRX (short+long) — the paper's "low power tail".
  [[nodiscard]] Energy drx() const { return short_drx + long_drx; }
  bool operator==(const EnergyReport&) const = default;
};

class EnergyAnalyzer {
 public:
  explicit EnergyAnalyzer(RrcConfig config) : config_(config) {}

  /// Analyze a full trace. When `include_decay_tail`, the post-transfer
  /// DRX decay to IDLE is charged to this trace (the paper's per-page
  /// totals include the tail; cumulative session plots slice instead).
  [[nodiscard]] EnergyReport analyze(const trace::PacketTrace& trace,
                                     bool include_decay_tail = true) const;

  /// Energy accrued in [t0, t1] according to `report`'s timeline;
  /// used for cumulative-energy-at-event plots (Fig 8).
  [[nodiscard]] Energy energy_between(const EnergyReport& report,
                                      TimePoint t0, TimePoint t1) const;

  [[nodiscard]] const RrcConfig& config() const { return config_; }

 private:
  [[nodiscard]] util::Power state_power(RrcState s) const;
  void add_interval(EnergyReport& r, TimePoint begin, TimePoint end,
                    RrcState state) const;
  /// Append the decay sequence following activity that ended at `from`,
  /// truncated at `until`.
  void add_decay(EnergyReport& r, TimePoint from, TimePoint until) const;

  RrcConfig config_;
};

}  // namespace parcel::lte

// Packet traces captured at the mobile device.
//
// The paper's methodology (§7.1) computes every metric post-hoc from a
// packet capture on the phone: OLT is "the time between the first SYN and
// the last ACK for all objects required to generate the onload event", TLT
// uses all objects, and radio energy is computed by replaying the trace
// through the ARO RRC/power model. We therefore make the trace the single
// source of truth: the network substrate records every burst that crosses
// the device's radio, tagged with connection and object identity, and the
// analyzers consume it.
//
// Layout (DESIGN.md §11): the trace is structure-of-arrays — one
// append-only column per PacketRecord field, kept sorted by time. Replay
// is the true kernel of this reproduction (every metric is a scan over
// the capture), and the analyzers only ever touch a field or two per
// pass: the RRC/energy replay reads just the time column (8 bytes per
// record instead of a 32-byte AoS stride), byte accounting reads
// dir/kind/bytes, and so on. Columns are exposed as spans for those
// linear scans; records()/fault_events() return lightweight views whose
// iterators materialize PacketRecord/FaultEvent values on demand, so the
// ~20 pre-SoA consumers (range-for, front()/back(), operator[]) migrate
// mechanically. Column storage draws from the per-run arena when one is
// in scope; traces that outlive a run (RunResult) are default-resource
// and receive the data element-wise on assignment.
#pragma once

#include <cstdint>
#include <functional>
#include <iterator>
#include <memory_resource>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "util/units.hpp"

namespace parcel::trace {

using util::Bytes;
using util::Duration;
using util::TimePoint;

enum class Direction : std::uint8_t { kUplink, kDownlink };

enum class PacketKind : std::uint8_t {
  kSyn,      // connection establishment (either direction)
  kData,     // payload-carrying burst
  kAck,      // bare acknowledgement / control
  kFin,      // teardown
};

/// One captured radio burst. The simulator works at burst granularity
/// (one record per TCP send window), which is the resolution the RRC
/// machine needs: DRX timers are two orders of magnitude longer than a
/// packet serialization time. Materialized on demand from the columns.
struct PacketRecord {
  TimePoint t;
  Direction dir = Direction::kDownlink;
  PacketKind kind = PacketKind::kData;
  Bytes bytes = 0;
  std::uint32_t conn_id = 0;
  /// Object this burst belongs to; 0 when not attributable (handshakes).
  std::uint32_t object_id = 0;
};

/// Injected-fault taxonomy (see sim::FaultPlan). Recorded alongside the
/// packet records so experiments can report energy/latency *under faults*
/// per scheme, plus time-to-recovery.
enum class FaultKind : std::uint8_t {
  kLoss,          // burst destroyed by the injector
  kBlackout,      // burst deferred by an outage window
  kCollapse,      // burst serialized under a bandwidth-collapse window
  kServerStall,   // origin response delayed
  kServerError,   // origin answered 5xx by injection
  kProxyCrash,    // the PARCEL proxy process died
  kProxyRestart,  // ... and came back (fresh process, page state lost)
  kDegraded,      // client presumed the proxy dead and went direct
};

struct FaultEvent {
  TimePoint t;
  FaultKind kind = FaultKind::kLoss;
  Bytes bytes = 0;
  std::uint32_t conn_id = 0;
};

/// Random-access view over a trace's columns yielding T by value.
/// `Materialize` is a member-function pointer of PacketTrace returning
/// the i-th row. Iterators satisfy random_access_iterator; dereference
/// returns a value, so `const auto& r : view` binds each row for the
/// loop body exactly like the old span-of-structs did.
template <typename Trace, typename T, T (Trace::*Materialize)(std::size_t)
                                          const>
class RowView {
 public:
  class iterator {
   public:
    using iterator_category = std::random_access_iterator_tag;
    using value_type = T;
    using difference_type = std::ptrdiff_t;
    using pointer = void;
    using reference = T;

    iterator() = default;
    iterator(const Trace* trace, std::size_t i) : trace_(trace), i_(i) {}

    T operator*() const { return (trace_->*Materialize)(i_); }
    T operator[](difference_type n) const {
      return (trace_->*Materialize)(i_ + static_cast<std::size_t>(n));
    }
    iterator& operator++() { ++i_; return *this; }
    iterator operator++(int) { iterator t = *this; ++i_; return t; }
    iterator& operator--() { --i_; return *this; }
    iterator operator--(int) { iterator t = *this; --i_; return t; }
    iterator& operator+=(difference_type n) {
      i_ = static_cast<std::size_t>(static_cast<difference_type>(i_) + n);
      return *this;
    }
    iterator& operator-=(difference_type n) { return *this += -n; }
    friend iterator operator+(iterator it, difference_type n) {
      return it += n;
    }
    friend iterator operator+(difference_type n, iterator it) {
      return it += n;
    }
    friend iterator operator-(iterator it, difference_type n) {
      return it -= n;
    }
    friend difference_type operator-(const iterator& a, const iterator& b) {
      return static_cast<difference_type>(a.i_) -
             static_cast<difference_type>(b.i_);
    }
    friend bool operator==(const iterator& a, const iterator& b) {
      return a.i_ == b.i_;
    }
    friend auto operator<=>(const iterator& a, const iterator& b) {
      return a.i_ <=> b.i_;
    }

   private:
    const Trace* trace_ = nullptr;
    std::size_t i_ = 0;
  };

  RowView(const Trace* trace, std::size_t size)
      : trace_(trace), size_(size) {}

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] T operator[](std::size_t i) const {
    return (trace_->*Materialize)(i);
  }
  [[nodiscard]] T front() const { return (*this)[0]; }
  [[nodiscard]] T back() const { return (*this)[size_ - 1]; }
  [[nodiscard]] iterator begin() const { return iterator(trace_, 0); }
  [[nodiscard]] iterator end() const { return iterator(trace_, size_); }

 private:
  const Trace* trace_;
  std::size_t size_;
};

class PacketTrace {
 public:
  /// Traces that outlive a run (RunResult members, fixtures) use the
  /// default heap resource; the testbed's capture trace passes
  /// core::run_resource() so column growth bumps out of the run arena.
  PacketTrace() : PacketTrace(std::pmr::get_default_resource()) {}
  explicit PacketTrace(std::pmr::memory_resource* mr)
      : t_(mr), dir_(mr), kind_(mr), bytes_(mr), conn_(mr), obj_(mr),
        fault_t_(mr), fault_kind_(mr), fault_bytes_(mr), fault_conn_(mr) {}

  // Copies re-home to the copier's default resource (pmr
  // select_on_container_copy_construction), so a RunResult copy of an
  // arena trace never aliases the arena. Moves propagate the source
  // resource; move-assignment across unequal resources (arena trace into
  // a default-resource RunResult) degrades to element-wise transfer,
  // which is exactly the run-exit handoff we want.
  PacketTrace(const PacketTrace&) = default;
  PacketTrace& operator=(const PacketTrace&) = default;
  PacketTrace(PacketTrace&&) = default;
  PacketTrace& operator=(PacketTrace&&) = default;

  void record(PacketRecord r);

  /// Materialize row `i` (bounds unchecked, like span indexing was).
  [[nodiscard]] PacketRecord record_at(std::size_t i) const {
    return PacketRecord{t_[i], dir_[i], kind_[i], bytes_[i], conn_[i],
                        obj_[i]};
  }
  [[nodiscard]] FaultEvent fault_at(std::size_t i) const {
    return FaultEvent{fault_t_[i], fault_kind_[i], fault_bytes_[i],
                      fault_conn_[i]};
  }

  using RecordsView = RowView<PacketTrace, PacketRecord,
                              &PacketTrace::record_at>;
  using FaultsView = RowView<PacketTrace, FaultEvent, &PacketTrace::fault_at>;

  [[nodiscard]] RecordsView records() const {
    return RecordsView(this, t_.size());
  }
  [[nodiscard]] bool empty() const { return t_.empty(); }
  [[nodiscard]] std::size_t size() const { return t_.size(); }

  // --- Columns (the replay fast path: linear scans, one field each) ----
  [[nodiscard]] std::span<const TimePoint> times() const { return t_; }
  [[nodiscard]] std::span<const Direction> directions() const { return dir_; }
  [[nodiscard]] std::span<const PacketKind> kinds() const { return kind_; }
  [[nodiscard]] std::span<const Bytes> sizes() const { return bytes_; }
  [[nodiscard]] std::span<const std::uint32_t> conn_ids() const {
    return conn_;
  }
  [[nodiscard]] std::span<const std::uint32_t> object_ids() const {
    return obj_;
  }
  [[nodiscard]] std::span<const TimePoint> fault_times() const {
    return fault_t_;
  }
  [[nodiscard]] std::span<const FaultKind> fault_kinds() const {
    return fault_kind_;
  }

  [[nodiscard]] Bytes total_bytes() const;
  [[nodiscard]] Bytes downlink_bytes() const;
  [[nodiscard]] Bytes uplink_bytes() const;

  [[nodiscard]] TimePoint first_time() const;
  [[nodiscard]] TimePoint last_time() const;

  /// First SYN in the trace; the paper's latency metrics are anchored here.
  [[nodiscard]] std::optional<TimePoint> first_syn_time() const;

  /// Last record attributable to any object in `object_ids`.
  [[nodiscard]] std::optional<TimePoint> last_time_of_objects(
      std::span<const std::uint32_t> object_ids) const;

  /// Distinct connection ids seen (Table 1's "# of TCP connections").
  [[nodiscard]] std::size_t connection_count() const;

  /// Fault-event side channel; empty (and cost-free) in fault-free runs.
  void record_fault(FaultEvent e);
  [[nodiscard]] FaultsView fault_events() const {
    return FaultsView(this, fault_t_.size());
  }
  [[nodiscard]] std::size_t fault_count(FaultKind kind) const;

  /// Live burst channel (ISSUE 10): called with each record as it is
  /// captured, in arrival order (before any time-sort reordering the
  /// columns apply). The online ctrl:: estimators tap the capture here;
  /// the listener is *observational* — it must not mutate the trace, it
  /// is never serialized, and the experiment harness clears it before
  /// the trace is handed off to RunResult. Null (the default) costs one
  /// branch per record.
  void set_burst_listener(std::function<void(const PacketRecord&)> listener) {
    burst_listener_ = std::move(listener);
  }
  [[nodiscard]] bool has_burst_listener() const {
    return static_cast<bool>(burst_listener_);
  }

  /// Truncate to records with t <= cutoff (paper limits capture to 60 s).
  void truncate_after(TimePoint cutoff);

  void clear();

  /// Serialize to a simple line format ("t dir kind bytes conn obj"; fault
  /// events as "F t kind bytes conn" lines) and parse it back; used by the
  /// replay store and for debugging dumps. Fault-free traces serialize
  /// exactly as before the fault layer existed — and the SoA layout emits
  /// byte-identical text to the pre-SoA array-of-structs trace (pinned in
  /// test_trace).
  [[nodiscard]] std::string serialize() const;
  static PacketTrace deserialize(const std::string& text);

  /// Same packet and fault records, column by column. The burst listener
  /// is an observer, not data, and the memory resource is placement, so
  /// neither takes part.
  friend bool operator==(const PacketTrace& a, const PacketTrace& b) {
    return a.t_ == b.t_ && a.dir_ == b.dir_ && a.kind_ == b.kind_ &&
           a.bytes_ == b.bytes_ && a.conn_ == b.conn_ && a.obj_ == b.obj_ &&
           a.fault_t_ == b.fault_t_ && a.fault_kind_ == b.fault_kind_ &&
           a.fault_bytes_ == b.fault_bytes_ && a.fault_conn_ == b.fault_conn_;
  }

 private:
  // Packet columns, index-aligned, sorted by t_ (promotion retiming can
  // hand records in slightly out of order; record() restores order).
  std::pmr::vector<TimePoint> t_;
  std::pmr::vector<Direction> dir_;
  std::pmr::vector<PacketKind> kind_;
  std::pmr::vector<Bytes> bytes_;
  std::pmr::vector<std::uint32_t> conn_;
  std::pmr::vector<std::uint32_t> obj_;
  // Fault-event columns, same discipline.
  std::pmr::vector<TimePoint> fault_t_;
  std::pmr::vector<FaultKind> fault_kind_;
  std::pmr::vector<Bytes> fault_bytes_;
  std::pmr::vector<std::uint32_t> fault_conn_;
  // Live capture tap (never serialized; cleared before RunResult handoff).
  std::function<void(const PacketRecord&)> burst_listener_;
};

}  // namespace parcel::trace

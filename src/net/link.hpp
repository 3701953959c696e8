// Store-and-forward link model.
//
// A Link is a unidirectional serialization resource: bursts queue FIFO,
// each occupies the link for bytes/rate seconds, then propagates for the
// link's delay. Concurrent TCP connections share a link implicitly through
// this FIFO — an approximation of fair sharing that preserves what matters
// for the paper's results: the bottleneck rate, the burst timing, and the
// queueing delay under contention.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>

#include "sim/scheduler.hpp"
#include "trace/packet_trace.hpp"
#include "util/callback.hpp"
#include "util/units.hpp"

namespace parcel::net {

using util::BitRate;
using util::Bytes;
using util::Duration;
using util::TimePoint;

class FaultInjector;

/// Metadata travelling with a burst, consumed by link taps (the client's
/// radio tap turns these into PacketRecords).
struct BurstInfo {
  trace::PacketKind kind = trace::PacketKind::kData;
  std::uint32_t conn_id = 0;
  std::uint32_t object_id = 0;
};

class Link {
 public:
  /// Move-only: a burst's continuation moves down its relay -> TCP ->
  /// HTTP chain and fires at most once.
  using DeliveryCallback = util::Callback<void(TimePoint)>;
  using Tap = std::function<void(TimePoint delivery, Bytes bytes,
                                 const BurstInfo& info)>;

  Link(sim::Scheduler& sched, std::string name, BitRate rate,
       Duration prop_delay);
  virtual ~Link() = default;
  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;

  /// Enqueue a burst; `on_delivered` fires at the arrival instant at the
  /// far end. Derived classes (the LTE radio link) may inject additional
  /// delay (RRC promotion) before serialization starts.
  virtual void transmit(Bytes bytes, const BurstInfo& info,
                        DeliveryCallback on_delivered);

  /// Scale the nominal rate (signal fading); scale in (0, 1].
  void set_rate_scale(double scale);
  [[nodiscard]] double rate_scale() const { return rate_scale_; }

  /// Compose with a fault injector (loss, blackout deferral, bandwidth
  /// collapse). Null (the default) keeps the link fault-free; the injector
  /// must outlive the link (the Testbed owns both).
  void set_fault_injector(FaultInjector* faults) { faults_ = faults; }
  [[nodiscard]] FaultInjector* fault_injector() const { return faults_; }

  /// Observe every delivered burst (used for packet capture).
  void set_tap(Tap tap) { tap_ = std::move(tap); }

  [[nodiscard]] BitRate nominal_rate() const { return rate_; }
  [[nodiscard]] BitRate effective_rate() const { return rate_ * rate_scale_; }
  [[nodiscard]] Duration prop_delay() const { return prop_delay_; }
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] Bytes bytes_carried() const { return bytes_carried_; }

 protected:
  /// Serialize starting no earlier than `earliest` (after blackout
  /// deferral and bandwidth collapse, if an injector is set); returns the
  /// delivery time.
  TimePoint enqueue_burst(TimePoint earliest, Bytes bytes,
                          const BurstInfo& info);

  /// True if the injector destroys this burst. A dropped burst never
  /// occupies the link and its delivery callback never fires — recovery is
  /// the sender's job (TCP RTO).
  bool fault_drop(Bytes bytes, const BurstInfo& info);

  /// Schedule the delivery. The burst (its metadata and `on_delivered`,
  /// the burst's relay -> TCP -> HTTP chain) waits in the link's in-flight
  /// FIFO, and the event's closure is just `this`, which fits a scheduler
  /// slot inline. A link serializes FIFO and never frees up earlier than
  /// it did, so deliveries are non-decreasing in time in enqueue order and
  /// same-time events fire in scheduling order: the n-th delivery event
  /// of a link always finds the n-th enqueued burst at the front.
  void finish_transmit(TimePoint delivery, Bytes bytes, const BurstInfo& info,
                       DeliveryCallback on_delivered);

  sim::Scheduler& sched_;

 private:
  struct InFlight {
    TimePoint delivery;
    Bytes bytes;
    BurstInfo info;
    DeliveryCallback on_delivered;
  };

  /// Fire the front burst of the in-flight FIFO.
  void deliver_front();

  std::string name_;
  BitRate rate_;
  Duration prop_delay_;
  double rate_scale_ = 1.0;
  FaultInjector* faults_ = nullptr;
  TimePoint next_free_ = TimePoint::origin();
  Bytes bytes_carried_ = 0;
  Tap tap_;
  /// Bursts scheduled but not yet delivered, oldest first. A deque, not a
  /// util::Fifo ring: a blackout can leave hundreds of bursts in flight,
  /// and a ring doubled to hold them all keeps (and, while growing, twice
  /// holds) far more memory than the blocks a deque adds and drops.
  std::deque<InFlight> in_flight_;
};

/// A bidirectional link: independent uplink and downlink serialization,
/// shared naming. Uplink is the A->B direction by convention.
class DuplexLink {
 public:
  DuplexLink(sim::Scheduler& sched, const std::string& name, BitRate up_rate,
             BitRate down_rate, Duration prop_delay);

  /// Construct around externally created halves (the radio link does this
  /// to share one RRC machine between directions).
  DuplexLink(std::unique_ptr<Link> up, std::unique_ptr<Link> down);

  [[nodiscard]] Link& up() { return *up_; }
  [[nodiscard]] Link& down() { return *down_; }
  [[nodiscard]] const Link& up() const { return *up_; }
  [[nodiscard]] const Link& down() const { return *down_; }
  [[nodiscard]] Duration prop_delay() const { return up_->prop_delay(); }

 private:
  std::unique_ptr<Link> up_;
  std::unique_ptr<Link> down_;
};

}  // namespace parcel::net

// Event-driven TCP flow model at send-window ("round") granularity.
//
// Why not per-packet: the RRC energy dynamics the paper studies play out
// at the scale of DRX timers (hundreds of ms) against LTE RTTs of 70-86 ms,
// so the unit of radio activity that matters is the ACK-clocked send
// window. Each round transmits min(cwnd, remaining) as one burst through
// the store-and-forward Path; the next round starts one RTT later (ACK
// clock) or when the bottleneck finishes serializing, whichever is later.
// This reproduces the two regimes of real TCP: window-limited throughput
// cwnd/RTT while slow start ramps, and rate-limited throughput at the
// bottleneck once the pipe is full.
#pragma once

#include <cstdint>

#include "net/path.hpp"
#include "sim/scheduler.hpp"
#include "util/fifo.hpp"
#include "util/rc.hpp"

namespace parcel::net {

struct TcpParams {
  Bytes mss = 1448;
  int initial_cwnd_segments = 10;  // RFC 6928 IW10
  int max_cwnd_segments = 256;     // receive-window cap (~370 KB)
  Bytes control_bytes = 40;        // SYN/ACK/FIN wire size
  /// Restart slow start after this much idle time on a persistent
  /// connection (RFC 2581 slow-start-restart, as deployed).
  Duration idle_restart = Duration::seconds(3.0);

  /// Loss recovery. Off by default: fair-weather runs arm zero timers and
  /// produce byte-identical event schedules to the pre-fault-layer model.
  /// The experiment harness enables it only when a fault plan is active.
  bool loss_recovery = false;
  Duration min_rto = Duration::seconds(1.0);
  double rto_backoff = 2.0;  // RTO doubles per retry
  int max_retransmits = 8;   // then the connection is declared broken
};

/// One TCP connection between the client side (path origin) and the server
/// side (path end). Single-threaded, driven entirely by the scheduler.
class TcpConnection {
 public:
  using Callback = util::Callback<void()>;
  using ArrivalCallback = util::Callback<void(TimePoint)>;

  TcpConnection(sim::Scheduler& sched, Path path, TcpParams params,
                std::uint32_t conn_id);

  /// Three-way handshake (client perspective); costs one RTT plus any
  /// radio promotion delay. Must be called exactly once.
  void connect(Callback on_established);

  [[nodiscard]] bool established() const { return established_; }
  [[nodiscard]] std::uint32_t id() const { return conn_id_; }
  [[nodiscard]] const Path& path() const { return path_; }

  /// Send `bytes` from client to server as a single logical message
  /// (requests are small; one burst suffices below ~15 KB and requests
  /// larger than the window are split into rounds like responses).
  void send_to_server(Bytes bytes, std::uint32_t object_id,
                      ArrivalCallback on_arrival);

  /// Stream `bytes` from server to client with slow-start windowing.
  /// Streams are queued FIFO; cwnd persists across items (persistent
  /// connection). `on_complete` fires when the last burst reaches the
  /// client and the client's final ACK has been emitted.
  void stream_to_client(Bytes bytes, std::uint32_t object_id,
                        ArrivalCallback on_complete);

  /// True while a downlink stream is in flight or queued.
  [[nodiscard]] bool streaming() const {
    return stream_active_ || !stream_queue_.empty();
  }

  /// Number of stream items waiting behind the active one.
  [[nodiscard]] std::size_t queued_streams() const {
    return stream_queue_.size();
  }

  /// Record a FIN exchange. No further sends are allowed.
  void close(Callback on_closed = nullptr);
  [[nodiscard]] bool closed() const { return closed_; }

  /// RTO-triggered retransmissions (loss recovery on only).
  [[nodiscard]] std::uint64_t retransmits() const { return retransmits_; }
  /// Duplicate deliveries whose original copy had already arrived (the
  /// retransmitted bytes still crossed the links — real energy cost).
  [[nodiscard]] std::uint64_t spurious_retransmits() const {
    return spurious_;
  }
  /// True once a single burst exhausted max_retransmits. The connection
  /// goes silent (further sends are no-ops, their callbacks never fire);
  /// recovery belongs to the application layer (fetch timeout, fallback).
  [[nodiscard]] bool broken() const { return broken_; }

 private:
  struct StreamItem {
    Bytes bytes;
    std::uint32_t object_id;
    ArrivalCallback on_complete;
  };

  struct GuardState;

  void start_next_stream();
  void send_round(Bytes remaining, std::uint32_t object_id,
                  ArrivalCallback on_complete);
  void maybe_restart_slow_start();

  /// Send one burst, retransmitting on RTO expiry when loss recovery is
  /// enabled; a plain path send otherwise.
  void send_guarded(bool up, Bytes bytes, const BurstInfo& info,
                    Link::DeliveryCallback on_delivered);
  void send_attempt(const util::Rc<GuardState>& guard);
  [[nodiscard]] Duration initial_rto(bool up, Bytes bytes) const;
  [[nodiscard]] Bytes cwnd_bytes() const {
    return static_cast<Bytes>(cwnd_segments_) * params_.mss;
  }

  sim::Scheduler& sched_;
  Path path_;
  TcpParams params_;
  std::uint32_t conn_id_;

  bool established_ = false;
  bool connecting_ = false;
  bool closed_ = false;
  bool broken_ = false;
  std::uint64_t retransmits_ = 0;
  std::uint64_t spurious_ = 0;
  int cwnd_segments_;
  TimePoint last_activity_ = TimePoint::origin();

  bool stream_active_ = false;
  util::Fifo<StreamItem> stream_queue_;
};

}  // namespace parcel::net

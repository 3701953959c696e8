#include "net/tcp.hpp"

#include <algorithm>
#include <stdexcept>

namespace parcel::net {

/// Per-burst retransmission state shared between the delivery callback and
/// the RTO timer. The first delivery wins; later copies count as spurious.
struct TcpConnection::GuardState {
  bool delivered = false;
  int tries = 0;
  Duration rto = Duration::zero();
  sim::EventHandle timer;
  Link::DeliveryCallback on_delivered;
};

TcpConnection::TcpConnection(sim::Scheduler& sched, Path path,
                             TcpParams params, std::uint32_t conn_id)
    : sched_(sched),
      path_(std::move(path)),
      params_(params),
      conn_id_(conn_id),
      cwnd_segments_(params.initial_cwnd_segments) {
  if (path_.empty()) throw std::invalid_argument("TcpConnection: empty path");
  if (params_.mss <= 0 || params_.initial_cwnd_segments <= 0) {
    throw std::invalid_argument("TcpConnection: bad params");
  }
}

void TcpConnection::connect(Callback on_established) {
  if (established_ || connecting_ || closed_) {
    throw std::logic_error("TcpConnection::connect called twice");
  }
  connecting_ = true;
  BurstInfo syn{trace::PacketKind::kSyn, conn_id_, 0};
  // Delivery callbacks fire at most once (the guard drops duplicates), so
  // each stage moves its continuation on instead of copying it.
  send_guarded(true, params_.control_bytes, syn,
               [this, cb = std::move(on_established)](TimePoint) mutable {
    BurstInfo synack{trace::PacketKind::kSyn, conn_id_, 0};
    send_guarded(false, params_.control_bytes, synack,
                 [this, cb = std::move(cb)](TimePoint t) {
      established_ = true;
      connecting_ = false;
      last_activity_ = t;
      if (cb) cb();
    });
  });
}

Duration TcpConnection::initial_rto(bool up, Bytes bytes) const {
  BitRate bottleneck = up ? path_.bottleneck_up() : path_.bottleneck_down();
  // Burst-granularity RTO: a "segment" here is a whole send window, so the
  // timer must cover its serialization with a generous margin (deep fades
  // quadruple transmit times) or fair-weather deliveries would race it.
  return std::max(params_.min_rto, path_.base_rtt() * 2.0 +
                                       bottleneck.transmit_time(bytes) * 4.0);
}

void TcpConnection::send_guarded(bool up, Bytes bytes, const BurstInfo& info,
                                 Link::DeliveryCallback on_delivered) {
  if (broken_) return;  // silent; the application layer recovers
  if (!params_.loss_recovery) {
    if (up) {
      path_.send_up(bytes, info, std::move(on_delivered));
    } else {
      path_.send_down(bytes, info, std::move(on_delivered));
    }
    return;
  }
  auto guard = std::make_shared<GuardState>();
  guard->rto = initial_rto(up, bytes);
  guard->on_delivered = std::move(on_delivered);
  send_attempt(up, bytes, info, guard);
}

void TcpConnection::send_attempt(bool up, Bytes bytes, const BurstInfo& info,
                                 const std::shared_ptr<GuardState>& guard) {
  auto deliver = [this, guard](TimePoint t) {
    if (guard->delivered) {
      // A retransmitted copy of an already-delivered burst: its bytes
      // crossed the links (and cost energy) but it clocks nothing.
      ++spurious_;
      return;
    }
    guard->delivered = true;
    guard->timer.cancel();
    if (guard->on_delivered) guard->on_delivered(t);
  };
  if (up) {
    path_.send_up(bytes, info, std::move(deliver));
  } else {
    path_.send_down(bytes, info, std::move(deliver));
  }

  guard->timer =
      sched_.schedule_after(guard->rto, [this, up, bytes, info, guard] {
        if (guard->delivered) return;
        if (guard->tries >= params_.max_retransmits) {
          broken_ = true;
          return;
        }
        ++guard->tries;
        ++retransmits_;
        // An RTO is a heavy loss signal: collapse to the initial window.
        cwnd_segments_ = params_.initial_cwnd_segments;
        guard->rto = guard->rto * params_.rto_backoff;
        send_attempt(up, bytes, info, guard);
      });
}

void TcpConnection::maybe_restart_slow_start() {
  if (sched_.now() - last_activity_ > params_.idle_restart) {
    cwnd_segments_ = params_.initial_cwnd_segments;
  }
}

void TcpConnection::send_to_server(Bytes bytes, std::uint32_t object_id,
                                   ArrivalCallback on_arrival) {
  if (!established_) throw std::logic_error("send_to_server: not connected");
  if (closed_) throw std::logic_error("send_to_server: closed");
  maybe_restart_slow_start();
  last_activity_ = sched_.now();
  // Requests fit in the initial window in practice; send as one burst.
  BurstInfo info{trace::PacketKind::kData, conn_id_, object_id};
  send_guarded(true, bytes, info,
               [this, cb = std::move(on_arrival)](TimePoint t) {
    last_activity_ = t;
    cb(t);
  });
}

void TcpConnection::stream_to_client(Bytes bytes, std::uint32_t object_id,
                                     ArrivalCallback on_complete) {
  if (!established_) throw std::logic_error("stream_to_client: not connected");
  if (closed_) throw std::logic_error("stream_to_client: closed");
  stream_queue_.push_back(StreamItem{bytes, object_id, std::move(on_complete)});
  if (!stream_active_) start_next_stream();
}

void TcpConnection::start_next_stream() {
  if (stream_queue_.empty()) {
    stream_active_ = false;
    return;
  }
  stream_active_ = true;
  StreamItem item = std::move(stream_queue_.front());
  stream_queue_.pop_front();
  maybe_restart_slow_start();
  // Zero-byte payloads (e.g. HTTP 204 bodies) still carry headers upstream
  // of this call; by the time we get here bytes includes header overhead
  // and is positive. Defend anyway.
  Bytes total = std::max<Bytes>(item.bytes, 1);
  send_round(total, item.object_id, std::move(item.on_complete));
}

void TcpConnection::send_round(Bytes remaining, std::uint32_t object_id,
                               ArrivalCallback on_complete) {
  Bytes burst = std::min(remaining, cwnd_bytes());
  BurstInfo info{trace::PacketKind::kData, conn_id_, object_id};
  TimePoint round_start = sched_.now();
  Bytes left = remaining - burst;

  if (left > 0) {
    // The completion callback rides with the next round, not this burst.
    send_guarded(false, burst, info,
                 [this](TimePoint t) { last_activity_ = t; });
    // ACK clock: the next window opens one RTT after this round began,
    // or when the bottleneck drains this burst, whichever is later.
    Duration pace = std::max(path_.base_rtt(),
                             path_.bottleneck_down().transmit_time(burst));
    cwnd_segments_ = std::min(cwnd_segments_ * 2, params_.max_cwnd_segments);
    sched_.schedule_at(round_start + pace,
                       [this, left, object_id,
                        on_complete = std::move(on_complete)]() mutable {
                         send_round(left, object_id, std::move(on_complete));
                       });
    return;
  }
  send_guarded(false, burst, info,
               [this, object_id,
                on_complete = std::move(on_complete)](TimePoint t) {
                 last_activity_ = t;
                 // Client acknowledges the final burst; this uplink
                 // control packet is what the paper's "last ACK"
                 // measurement anchors on, and it keeps the radio's
                 // uplink activity honest for the energy model.
                 BurstInfo ack{trace::PacketKind::kAck, conn_id_, object_id};
                 send_guarded(true, params_.control_bytes, ack,
                              [](TimePoint) {});
                 if (on_complete) on_complete(t);
               });
  // Pipeline: the server keeps writing; the next queued stream item's
  // bytes follow this one on the wire without waiting for the client's
  // ACK (persistent-connection behaviour; crucial for IND, where a page
  // is hundreds of back-to-back pushes).
  start_next_stream();
}

void TcpConnection::close(Callback on_closed) {
  if (closed_) return;
  closed_ = true;
  if (!established_) return;
  BurstInfo fin{trace::PacketKind::kFin, conn_id_, 0};
  send_guarded(true, params_.control_bytes, fin,
               [this, cb = std::move(on_closed)](TimePoint) mutable {
                 BurstInfo finack{trace::PacketKind::kFin, conn_id_, 0};
                 send_guarded(false, params_.control_bytes, finack,
                              [cb = std::move(cb)](TimePoint) {
                                if (cb) cb();
                              });
               });
}

}  // namespace parcel::net

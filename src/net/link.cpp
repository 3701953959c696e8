#include "net/link.hpp"

#include <stdexcept>
#include <utility>

#include "net/fault_injector.hpp"

namespace parcel::net {

Link::Link(sim::Scheduler& sched, std::string name, BitRate rate,
           Duration prop_delay)
    : sched_(sched),
      name_(std::move(name)),
      rate_(rate),
      prop_delay_(prop_delay) {
  if (rate.bits_per_sec() <= 0.0) {
    throw std::invalid_argument("Link rate must be positive: " + name_);
  }
}

void Link::set_rate_scale(double scale) {
  if (scale <= 0.0 || scale > 1.0) {
    throw std::invalid_argument("rate scale must be in (0, 1]");
  }
  rate_scale_ = scale;
}

TimePoint Link::enqueue_burst(TimePoint earliest, Bytes bytes,
                              const BurstInfo& info) {
  if (faults_) earliest = faults_->blackout_release(earliest, bytes, info);
  TimePoint start = std::max(earliest, next_free_);
  double mult = faults_ ? faults_->rate_multiplier(start, bytes, info) : 1.0;
  Duration tx = (effective_rate() * mult).transmit_time(bytes);
  next_free_ = start + tx;
  return next_free_ + prop_delay_;
}

bool Link::fault_drop(Bytes bytes, const BurstInfo& info) {
  return faults_ != nullptr && faults_->drop_burst(sched_.now(), bytes, info);
}

void Link::finish_transmit(TimePoint delivery, Bytes bytes,
                           const BurstInfo& info,
                           DeliveryCallback on_delivered) {
  bytes_carried_ += bytes;
  in_flight_.push_back(InFlight{delivery, bytes, info, std::move(on_delivered)});
  sched_.schedule_at(delivery, [this] { deliver_front(); });
}

void Link::deliver_front() {
  // Move the burst out first: its callback may transmit on this link.
  InFlight burst = std::move(in_flight_.front());
  in_flight_.pop_front();
  if (tap_) tap_(burst.delivery, burst.bytes, burst.info);
  burst.on_delivered(burst.delivery);
}

void Link::transmit(Bytes bytes, const BurstInfo& info,
                    DeliveryCallback on_delivered) {
  if (bytes < 0) throw std::invalid_argument("negative burst size");
  if (fault_drop(bytes, info)) return;
  TimePoint delivery = enqueue_burst(sched_.now(), bytes, info);
  finish_transmit(delivery, bytes, info, std::move(on_delivered));
}

DuplexLink::DuplexLink(sim::Scheduler& sched, const std::string& name,
                       BitRate up_rate, BitRate down_rate, Duration prop_delay)
    : up_(std::make_unique<Link>(sched, name + ".up", up_rate, prop_delay)),
      down_(std::make_unique<Link>(sched, name + ".down", down_rate,
                                   prop_delay)) {}

DuplexLink::DuplexLink(std::unique_ptr<Link> up, std::unique_ptr<Link> down)
    : up_(std::move(up)), down_(std::move(down)) {
  if (!up_ || !down_) {
    throw std::invalid_argument("DuplexLink requires both halves");
  }
}

}  // namespace parcel::net

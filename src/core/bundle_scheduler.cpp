#include "core/bundle_scheduler.hpp"

#include <stdexcept>
#include <utility>

namespace parcel::core {

std::string BundleConfig::name() const {
  if (threshold == 0) return "PARCEL(IND)";
  if (threshold == kUnbounded) return "PARCEL(ONLD)";
  // The largest unit that divides X exactly, so distinct X never share a
  // name.
  if (threshold % util::mib(1) == 0) {
    return "PARCEL(" + std::to_string(threshold / util::mib(1)) + "M)";
  }
  if (threshold % util::kib(1) == 0) {
    return "PARCEL(" + std::to_string(threshold / util::kib(1)) + "K)";
  }
  return "PARCEL(" + std::to_string(threshold) + "B)";
}

BundleScheduler::BundleScheduler(BundleConfig config, Sink sink)
    : config_(config), sink_(std::move(sink)) {
  if (!sink_) throw std::invalid_argument("BundleScheduler: null sink");
  set_threshold(config_.threshold);
}

void BundleScheduler::on_object(const net::Url& url, web::ObjectType type,
                                Bytes size,
                                std::shared_ptr<const std::string> content) {
  pending_.add_raw(url, std::string(web::mime_type(type)), size,
                   std::move(content));
  if (pending_.payload_bytes() >= config_.threshold) flush();
}

// Onload releases whatever has accumulated (§4.4: "or if the onload event
// is detected"); under IND nothing is pending.
void BundleScheduler::on_proxy_onload() { flush(); }

void BundleScheduler::on_page_complete() { flush(); }

void BundleScheduler::set_threshold(Bytes threshold) {
  if (threshold < 0) {
    throw std::invalid_argument("BundleScheduler: negative threshold");
  }
  config_.threshold = threshold;
}

void BundleScheduler::flush() {
  if (pending_.empty()) return;
  web::MhtmlWriter bundle = std::move(pending_);
  pending_ = web::MhtmlWriter{};
  ++bundles_sent_;
  sink_(std::move(bundle));
}

}  // namespace parcel::core

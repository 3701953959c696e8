// BundleScheduler: PARCEL's cellular-friendly transfer dial (§4.4, Fig 5).
//
// One threshold X: the proxy flushes the pending objects to the client
// whenever X payload bytes have accumulated, at its onload event, and at
// page completion. The paper's named schemes are the dial's two ends and
// its middle:
//
//   X = 0        IND: every object goes out the moment the proxy
//                receives it (minimizes OLT; Fig 5b).
//   X = ∞        ONLD: nothing goes out before onload; post-onload
//                stragglers go in a final batch at page completion
//                (maximizes radio sleep; Fig 5c).
//   0 < X < ∞    PARCEL(X): the latency/energy trade-off (Fig 5d).
#pragma once

#include <functional>
#include <limits>
#include <string>

#include "browser/fetcher.hpp"
#include "util/units.hpp"
#include "web/mhtml.hpp"

namespace parcel::core {

using util::Bytes;

struct BundleConfig {
  /// The ONLD end of the dial: no byte count ever reaches it.
  static constexpr Bytes kUnbounded = std::numeric_limits<Bytes>::max();

  Bytes threshold = 0;  // IND

  /// "PARCEL(IND)", "PARCEL(ONLD)", else X in the largest unit that
  /// divides it: "PARCEL(2M)", "PARCEL(1536K)", "PARCEL(1023B)".
  [[nodiscard]] std::string name() const;
};

class BundleScheduler {
 public:
  /// `sink` receives each flushed bundle (already framed as MHTML parts).
  using Sink = std::function<void(web::MhtmlWriter bundle)>;

  BundleScheduler(BundleConfig config, Sink sink);

  /// The proxy intercepted one origin response.
  void on_object(const net::Url& url, web::ObjectType type, Bytes size,
                 std::shared_ptr<const std::string> content);

  /// The proxy-side engine fired onload.
  void on_proxy_onload();

  /// The proxy's completion heuristic declared the page done; flush the
  /// remainder unconditionally.
  void on_page_complete();

  /// Mid-load retune (ctrl::BundleController): the new target is
  /// consulted at the next on_object, i.e. it takes effect at a bundle
  /// boundary — data already pending keeps accumulating toward the new
  /// threshold rather than being flushed early.
  void set_threshold(Bytes threshold);

  [[nodiscard]] std::size_t bundles_sent() const { return bundles_sent_; }
  [[nodiscard]] Bytes threshold() const { return config_.threshold; }
  [[nodiscard]] Bytes pending_bytes() const { return pending_.payload_bytes(); }

 private:
  void flush();

  BundleConfig config_;
  Sink sink_;
  web::MhtmlWriter pending_;
  std::size_t bundles_sent_ = 0;
};

}  // namespace parcel::core

// ParcelClientFetcher: the device half of PARCEL's functionality split.
//
// The client browser parses and renders like a normal browser, but its
// fetcher answers from the cache of objects the proxy pushed, and
// *suppresses* network requests for anything it has identified but not
// yet received — the object "could well be in flight from the proxy"
// (§4.5). Suppressed requests are parked; a bundle part with the exact
// URL releases them, and the proxy's completion notification converts the
// stragglers into explicit fallback requests.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "browser/fetcher.hpp"
#include "sim/scheduler.hpp"
#include "util/rng.hpp"
#include "web/mhtml.hpp"

namespace parcel::core {

using util::Duration;

class ParcelClientFetcher final : public browser::Fetcher {
 public:
  /// `fallback` is wired by the session to relay a missing-object request
  /// to the proxy.
  using FallbackFn = std::function<void(const net::Url& url,
                                        web::ObjectType hint)>;

  /// Wired by the session to fetch an object directly from its origin,
  /// bypassing the (presumed dead) proxy. Last rung of the degradation
  /// ladder (DESIGN.md §7).
  using DirectFetchFn = std::function<void(
      const net::Url& url, web::ObjectType hint, std::uint32_t object_id,
      browser::FetchCallback on_result)>;

  ParcelClientFetcher(sim::Scheduler& sched, util::Rng rng,
                      Duration local_lookup_delay = Duration::micros(500));

  void set_fallback(FallbackFn fallback) { fallback_ = std::move(fallback); }
  void set_direct_fetch(DirectFetchFn direct) {
    direct_fetch_ = std::move(direct);
  }

  /// Give up on the proxy: every parked request is re-issued as a
  /// direct-to-origin fetch, and future cache misses go direct too. The
  /// bundle cache keeps serving whatever did arrive.
  void degrade_to_direct();
  [[nodiscard]] bool degraded() const { return degraded_; }
  [[nodiscard]] std::size_t direct_fetches() const { return direct_fetches_; }

  /// Ablation knob: with suppression disabled, every cache miss turns
  /// into an immediate fallback request instead of parking — the naive
  /// client the paper's §4.5 design argues against (the object "could
  /// well be in flight from the proxy").
  void set_suppression(bool enabled) { suppression_ = enabled; }

  // Fetcher: called by the client engine.
  void fetch(const net::Url& url, web::ObjectType hint, bool randomized,
             std::uint32_t object_id, browser::FetchCallback on_result) override;

  // Session events.
  void on_bundle_parts(std::vector<web::MhtmlPart> parts);
  void on_completion_note();

  /// A new page of the session begins: suppression resumes (a fresh
  /// completion notification will come for this page); the bundle cache
  /// persists — it is the device cache.
  void on_new_page();

  [[nodiscard]] bool completion_received() const { return complete_noted_; }
  [[nodiscard]] std::size_t parked_count() const { return parked_.size(); }
  [[nodiscard]] std::size_t cache_hits() const { return cache_hits_; }
  [[nodiscard]] std::size_t suppressed_total() const { return suppressed_; }
  [[nodiscard]] std::size_t fallback_requests() const { return fallbacks_; }
  [[nodiscard]] std::size_t cached_objects() const { return cache_.size(); }

 private:
  struct Parked {
    net::Url url;  // exact URL the engine asked for
    web::ObjectType hint;
    std::uint32_t object_id = 0;
    browser::FetchCallback on_result;
  };

  void deliver(const web::MhtmlPart& part, web::ObjectType hint,
               browser::FetchCallback on_result);
  void request_fallback(Parked parked);
  void request_direct(Parked parked);

  sim::Scheduler& sched_;
  util::Rng rng_;
  Duration local_lookup_delay_;
  FallbackFn fallback_;
  DirectFetchFn direct_fetch_;

  /// Bundle cache keyed by interned URL identity (exact-URL match, as
  /// before — only the key representation changed).
  std::unordered_map<net::UrlId, web::MhtmlPart, net::UrlIdHash> cache_;
  std::vector<Parked> parked_;
  bool suppression_ = true;
  bool complete_noted_ = false;
  bool degraded_ = false;
  std::size_t cache_hits_ = 0;
  std::size_t suppressed_ = 0;
  std::size_t fallbacks_ = 0;
  std::size_t direct_fetches_ = 0;
};

}  // namespace parcel::core

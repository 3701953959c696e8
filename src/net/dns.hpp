// DNS resolution model.
//
// The paper (§2.1) counts DNS lookups among the short transfers that keep
// the radio busy: one lookup per server domain for the DIR browser, zero
// on the cellular link for PARCEL (the proxy resolves). A lookup is a
// small request/response exchange over the client's path to its resolver
// plus a server-side resolution latency.
#pragma once

#include <cstdint>
#include <functional>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "net/path.hpp"
#include "net/url.hpp"
#include "sim/scheduler.hpp"
#include "util/callback.hpp"
#include "util/rng.hpp"

namespace parcel::net {

class DnsClient {
 public:
  using Callback = util::Callback<void()>;

  DnsClient(sim::Scheduler& sched, Path path_to_resolver,
            Duration mean_server_latency, util::Rng rng,
            std::function<std::uint32_t()> conn_ids);

  /// Resolve the domain named by its interned id (Url::host_id()); the
  /// callback fires when the answer arrives. Cached domains resolve
  /// synchronously (the cache models the OS stub cache, flushed between
  /// experiment runs by constructing a fresh client). The browsers'
  /// request path hands ids straight from the Url — no host string is
  /// copied or hashed per lookup.
  void resolve(UrlId domain, Callback on_resolved);

  /// Convenience for display/test paths holding a name: interns and
  /// forwards. Request paths should pass Url::host_id() directly.
  void resolve(std::string_view domain, Callback on_resolved) {
    resolve(UrlId{intern_key(domain)}, std::move(on_resolved));
  }

  [[nodiscard]] std::size_t lookups_issued() const { return lookups_; }
  [[nodiscard]] std::size_t cache_hits() const { return cache_hits_; }

 private:
  sim::Scheduler& sched_;
  Path path_;
  Duration mean_server_latency_;
  util::Rng rng_;
  std::function<std::uint32_t()> conn_ids_;
  std::unordered_set<UrlId, UrlIdHash> cache_;
  /// Lookups in flight: later resolve() calls for the same domain wait on
  /// the first answer instead of issuing duplicate queries.
  std::unordered_map<UrlId, std::vector<Callback>, UrlIdHash> pending_;
  std::size_t lookups_ = 0;
  std::size_t cache_hits_ = 0;
};

}  // namespace parcel::net

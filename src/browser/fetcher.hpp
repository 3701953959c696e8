// Fetcher: how a browser engine obtains bytes for a URL.
//
// The engine is agnostic to transport. DIR's fetcher does DNS + pooled
// HTTP over the radio; the PARCEL proxy's fetcher uses its wired paths;
// the PARCEL client's fetcher answers from the pushed bundle cache and
// *suppresses* network requests (paper §4.5). This interface is the seam
// that makes the paper's functionality split expressible.
#pragma once

#include <cstdint>
#include <memory>

#include "net/url.hpp"
#include "util/callback.hpp"
#include "web/object.hpp"

namespace parcel::browser {

struct FetchResult {
  net::Url url;  // final URL (including any cache-busting query)
  web::ObjectType type = web::ObjectType::kImage;
  util::Bytes size = 0;
  std::shared_ptr<const std::string> content;
  int status = 200;

  [[nodiscard]] bool ok() const { return status >= 200 && status < 300; }
};

/// Receives an object's result, once. Move-only, like every continuation
/// on the request path (util/callback.hpp), so a fetcher moves it into
/// the closure that answers instead of copying it.
using FetchCallback = util::Callback<void(FetchResult)>;

class Fetcher {
 public:
  virtual ~Fetcher() = default;

  /// Fetch `url`. `randomized` asks the fetcher to append a fresh
  /// cache-busting query (MiniJs fetchRand semantics). `object_id` tags
  /// the packet-trace records of this object's transfer.
  virtual void fetch(const net::Url& url, web::ObjectType hint,
                     bool randomized, std::uint32_t object_id,
                     FetchCallback on_result) = 0;
};

}  // namespace parcel::browser

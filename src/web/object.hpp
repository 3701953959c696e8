// Web object model: the units a page is assembled from (paper §2.1).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "net/url.hpp"
#include "util/units.hpp"

namespace parcel::web {

using util::Bytes;
using util::Duration;

enum class ObjectType : std::uint8_t {
  kHtml,
  kCss,
  kJs,       // synchronous: blocks the parser until fetched and executed
  kJsAsync,  // async: does not block parsing; may run after onload
  kImage,
  kFont,
  kJson,  // XHR payloads
  kMedia,
};

[[nodiscard]] std::string_view to_string(ObjectType t);
/// A view of a static literal, valid for the whole program (HTTP
/// responses keep it as their content type).
[[nodiscard]] std::string_view mime_type(ObjectType t);
[[nodiscard]] ObjectType type_from_mime(std::string_view mime);

/// Is the body parseable text the proxy/browser must scan for
/// dependencies?
[[nodiscard]] bool is_parseable(ObjectType t);

struct WebObject {
  net::Url url;
  ObjectType type = ObjectType::kImage;
  Bytes size = 0;  // wire body size; equals content size for text types
  /// Actual body text for parseable types; shared so that servers, the
  /// proxy's bundle and the client's DOM reference one copy.
  std::shared_ptr<const std::string> content;
  /// JS execution cost in abstract work units (MiniJs charges these).
  double js_work = 0.0;
  /// Requested only after the onload event (async ad/widget cluster);
  /// drives the paper's OLT-vs-TLT distinction and the proxy's
  /// page-completion heuristic (§4.5).
  bool post_onload = false;
  /// Server-side generation latency for this object.
  Duration server_think = Duration::millis(25);

  [[nodiscard]] const std::string& text() const;
  [[nodiscard]] std::string key() const { return url.str(); }
};

}  // namespace parcel::web

// MHTML bundle codec (paper §5.1).
//
// PARCEL transfers objects from proxy to client as MHTML: a multipart
// document where each part carries the object's HTTP headers
// (Content-Location, Content-Type, Content-Length) followed by its body.
// serialize() and MhtmlReader::parse() define the wire format and serve
// as its test oracle. The simulated push path does not round-trip
// through them: the proxy streams wire_size() bytes — exactly
// serialize().size(), computed by the same framing code without building
// the string — and hands the writer's parts (text bodies still sharing
// their origin buffers) to the client. Opaque bodies (images) serialize
// as filler of the correct length, as only their size matters.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "net/url.hpp"
#include "web/object.hpp"

namespace parcel::web {

struct MhtmlPart {
  net::Url location;
  std::string content_type;
  Bytes body_size = 0;
  /// Body text for parseable types; null for opaque bodies.
  std::shared_ptr<const std::string> content;
};

class MhtmlWriter {
 public:
  void add(const WebObject& object);
  void add_raw(const net::Url& location, const std::string& content_type,
               Bytes body_size, std::shared_ptr<const std::string> content);

  [[nodiscard]] std::size_t part_count() const { return parts_.size(); }
  [[nodiscard]] bool empty() const { return parts_.empty(); }

  /// Total payload bytes (bodies only, before MHTML framing).
  [[nodiscard]] Bytes payload_bytes() const;

  /// Serialize; the returned string's size is the exact wire size.
  [[nodiscard]] std::string serialize() const;

  /// serialize().size(), without building the string.
  [[nodiscard]] std::size_t wire_size() const;

  /// Hand the parts over (what parse(serialize()) would yield, field for
  /// field); the writer is left empty.
  [[nodiscard]] std::vector<MhtmlPart> take_parts() && {
    return std::move(parts_);
  }

  void clear() { parts_.clear(); }

 private:
  std::vector<MhtmlPart> parts_;
};

class MhtmlReader {
 public:
  /// Parse a serialized bundle. Throws std::invalid_argument on framing
  /// errors (missing boundary / truncated part) and on a Content-Length
  /// that is not a plain decimal fitting in Bytes.
  static std::vector<MhtmlPart> parse(const std::string& text);
};

}  // namespace parcel::web

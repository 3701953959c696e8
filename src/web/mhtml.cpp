#include "web/mhtml.hpp"

#include <charconv>
#include <stdexcept>
#include <string_view>

#include "util/strings.hpp"

namespace parcel::web {

namespace {
constexpr std::string_view kBoundary = "----=_ParcelBundleBoundary";
constexpr std::string_view kHeader =
    "MIME-Version: 1.0\r\n"
    "Content-Type: multipart/related; boundary=\"----=_ParcelBundleBoundary\"\r\n"
    "\r\n";

// The bundle's byte layout, written once for both consumers: `out` is
// either a StringOut (serialize) or a SizeOut (wire_size).
template <typename Out>
void write_bundle(const std::vector<MhtmlPart>& parts, Out& out) {
  out.text(kHeader);
  for (const auto& p : parts) {
    char length[24];
    const auto digits = std::to_chars(length, length + sizeof length,
                                      static_cast<long long>(p.body_size));
    out.text("--");
    out.text(kBoundary);
    out.text("\r\nContent-Location: ");
    out.url(p.location);
    out.text("\r\nContent-Type: ");
    out.text(p.content_type);
    out.text("\r\nContent-Length: ");
    out.text(std::string_view(length, static_cast<std::size_t>(
                                          digits.ptr - length)));
    out.text(p.content ? "\r\nX-Parcel-Body: text\r\n\r\n"
                       : "\r\nX-Parcel-Body: opaque\r\n\r\n");
    out.body(p);
    out.text("\r\n");
  }
  out.text("--");
  out.text(kBoundary);
  out.text("--\r\n");
}

struct StringOut {
  std::string& s;
  void text(std::string_view v) { s.append(v); }
  void url(const net::Url& u) { s.append(u.str()); }
  void body(const MhtmlPart& p) {
    if (p.content) {
      s.append(*p.content);
    } else {
      s.append(static_cast<std::size_t>(p.body_size), 'x');
    }
  }
};

struct SizeOut {
  std::size_t n = 0;
  void text(std::string_view v) { n += v.size(); }
  void url(const net::Url& u) { n += u.str_size(); }
  void body(const MhtmlPart& p) {
    n += p.content ? p.content->size() : static_cast<std::size_t>(p.body_size);
  }
};

/// Strict Content-Length: one or more decimal digits, nothing else, and a
/// value that fits in Bytes.
Bytes parse_length(std::string_view value) {
  Bytes n = 0;
  const char* end = value.data() + value.size();
  const auto [ptr, ec] = std::from_chars(value.data(), end, n);
  if (value.empty() || value.front() < '0' || value.front() > '9' ||
      ec != std::errc{} || ptr != end) {
    throw std::invalid_argument("MhtmlReader: bad Content-Length '" +
                                std::string(value) + "'");
  }
  return n;
}
}  // namespace

void MhtmlWriter::add(const WebObject& object) {
  add_raw(object.url, std::string(mime_type(object.type)), object.size,
          object.content);
}

void MhtmlWriter::add_raw(const net::Url& location,
                          const std::string& content_type, Bytes body_size,
                          std::shared_ptr<const std::string> content) {
  MhtmlPart part;
  part.location = location;
  part.content_type = content_type;
  part.body_size = body_size;
  part.content = std::move(content);
  parts_.push_back(std::move(part));
}

Bytes MhtmlWriter::payload_bytes() const {
  Bytes n = 0;
  for (const auto& p : parts_) n += p.body_size;
  return n;
}

std::string MhtmlWriter::serialize() const {
  std::string out;
  out.reserve(wire_size());
  StringOut sink{out};
  write_bundle(parts_, sink);
  return out;
}

std::size_t MhtmlWriter::wire_size() const {
  SizeOut sink;
  write_bundle(parts_, sink);
  return sink.n;
}

std::vector<MhtmlPart> MhtmlReader::parse(const std::string& text) {
  std::vector<MhtmlPart> parts;
  std::string delim = "--" + std::string(kBoundary);
  std::size_t pos = text.find(delim);
  if (pos == std::string::npos) {
    throw std::invalid_argument("MhtmlReader: no boundary found");
  }
  while (true) {
    pos += delim.size();
    if (text.compare(pos, 2, "--") == 0) break;  // terminator
    if (text.compare(pos, 2, "\r\n") != 0) {
      throw std::invalid_argument("MhtmlReader: malformed boundary line");
    }
    pos += 2;
    // Headers until blank line.
    MhtmlPart part;
    bool opaque = true;
    while (true) {
      std::size_t eol = text.find("\r\n", pos);
      if (eol == std::string::npos) {
        throw std::invalid_argument("MhtmlReader: truncated headers");
      }
      std::string_view line(text.data() + pos, eol - pos);
      pos = eol + 2;
      if (line.empty()) break;
      auto colon = line.find(':');
      if (colon == std::string_view::npos) {
        throw std::invalid_argument("MhtmlReader: bad header line");
      }
      std::string_view name = line.substr(0, colon);
      std::string_view value = util::trim(line.substr(colon + 1));
      if (util::iequals(name, "Content-Location")) {
        part.location = net::Url::parse(value);
      } else if (util::iequals(name, "Content-Type")) {
        part.content_type = std::string(value);
      } else if (util::iequals(name, "Content-Length")) {
        part.body_size = parse_length(value);
      } else if (util::iequals(name, "X-Parcel-Body")) {
        opaque = util::iequals(value, "opaque");
      }
    }
    if (pos + static_cast<std::size_t>(part.body_size) + 2 > text.size()) {
      throw std::invalid_argument("MhtmlReader: truncated body");
    }
    if (!opaque) {
      part.content = std::make_shared<const std::string>(
          text.substr(pos, static_cast<std::size_t>(part.body_size)));
    }
    pos += static_cast<std::size_t>(part.body_size);
    if (text.compare(pos, 2, "\r\n") != 0) {
      throw std::invalid_argument("MhtmlReader: missing body terminator");
    }
    pos += 2;
    std::size_t next = text.find(delim, pos);
    if (next == std::string::npos) {
      throw std::invalid_argument("MhtmlReader: missing next boundary");
    }
    pos = next;
    parts.push_back(std::move(part));
  }
  return parts;
}

}  // namespace parcel::web

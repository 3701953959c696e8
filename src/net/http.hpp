// HTTP/1.1 semantics over the TCP model.
//
// HttpConnection is a client-side persistent connection: requests are
// serialized FIFO (no pipelining, matching deployed HTTP/1.1), responses
// stream back through TcpConnection's windowed sender. HttpClientPool
// implements the browser rule of at most N parallel connections per
// domain (the paper observes 6 for the DIR browser) under a global cap
// (17), and keeps running counts of busy connections and backlogged
// requests so that a dispatch never rescans the pool.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "net/tcp.hpp"
#include "net/url.hpp"
#include "sim/scheduler.hpp"
#include "util/callback.hpp"
#include "util/fifo.hpp"

namespace parcel::net {

enum class HttpMethod : std::uint8_t { kGet, kPost };

struct HttpRequest {
  HttpMethod method = HttpMethod::kGet;
  Url url;
  /// Client attributes PARCEL forwards so the proxy can emulate the device
  /// (user-agent, screen size — §4.5 "Client properties").
  std::string user_agent = "ParcelSim/1.0";
  std::string screen_info;
  Bytes body_bytes = 0;  // POST payload

  /// Approximate on-the-wire size of the request head.
  [[nodiscard]] Bytes wire_size() const;
};

struct HttpResponse {
  int status = 200;
  /// Always a view of a static MIME literal (web::mime_type()'s, or a
  /// literal where the response is built), never of a string: a response
  /// outlives the handler that built it, and a view is a copy with no
  /// allocation where "application/octet-stream" overflows a
  /// std::string's small buffer.
  std::string_view content_type = "application/octet-stream";
  Bytes body_bytes = 0;
  /// Actual text for parseable types (HTML/CSS/JS); null for opaque bodies
  /// (images), whose bytes only matter as transfer volume.
  std::shared_ptr<const std::string> content;
  Url url;  // final URL (after server-side routing)

  [[nodiscard]] Bytes wire_size() const;
  [[nodiscard]] bool has_body() const { return status != 204 && body_bytes > 0; }
};

/// Server application interface. Implementations (origin servers, the
/// PARCEL proxy, the replay server) receive the request and respond via
/// callback, possibly after simulated processing time.
class HttpEndpoint {
 public:
  /// Called once with the response; move-only, like every per-request
  /// continuation on the connection's path.
  using Responder = util::Callback<void(HttpResponse)>;

  virtual ~HttpEndpoint() = default;
  virtual void handle(const HttpRequest& request, Responder respond) = 0;
};

/// One persistent client connection to an endpoint.
///
/// `max_in_flight` is the number of concurrently outstanding requests:
/// 1 models HTTP/1.1 (no pipelining); larger values model SPDY-style
/// stream multiplexing over the single connection (requests issued
/// without waiting, response bytes interleaving on the wire).
class HttpConnection {
 public:
  using ResponseCallback = util::Callback<void(const HttpResponse&)>;

  HttpConnection(sim::Scheduler& sched, Path path, HttpEndpoint& endpoint,
                 TcpParams params, std::uint32_t conn_id,
                 int max_in_flight = 1);

  /// Issue a request; `object_id` tags the trace records of the response
  /// body.
  void fetch(HttpRequest request, std::uint32_t object_id,
             ResponseCallback on_response);

  [[nodiscard]] bool busy() const {
    return in_flight_ > 0 || !queue_.empty();
  }
  [[nodiscard]] std::uint32_t id() const { return tcp_.id(); }
  [[nodiscard]] TcpConnection& tcp() { return tcp_; }
  [[nodiscard]] const TcpConnection& tcp() const { return tcp_; }

 private:
  struct Pending {
    HttpRequest request;
    std::uint32_t object_id;
    ResponseCallback on_response;
  };

  void pump();

  sim::Scheduler& sched_;
  HttpEndpoint& endpoint_;
  TcpConnection tcp_;
  int max_in_flight_;
  bool connected_ = false;
  bool connecting_ = false;
  int in_flight_ = 0;
  util::Fifo<Pending> queue_;
};

/// Browser-style per-domain connection pool.
///
/// Requests wait in a per-domain FIFO backlog and go to an idle
/// connection of their domain, or to a new one below the per-domain cap,
/// while fewer than max_total_connections are busy. The pool hands a
/// request only to an idle connection, so each pooled connection carries
/// at most one request and `busy_` (requests issued minus responses
/// received) equals the number of busy connections. A connection broken
/// by loss never answers, so its slot stays busy for the rest of the run.
/// When a response frees a slot, the backlogs are offered it in domain
/// order: the ordered map fixes which domain wins under the global cap.
class HttpClientPool {
 public:
  using PathFactory = std::function<Path(const std::string& domain)>;
  using EndpointResolver = std::function<HttpEndpoint*(const std::string&)>;
  using ConnIdAllocator = std::function<std::uint32_t()>;

  HttpClientPool(sim::Scheduler& sched, PathFactory path_factory,
                 EndpointResolver endpoint_resolver, ConnIdAllocator conn_ids,
                 TcpParams params, int max_conns_per_domain,
                 int max_total_connections = 17);

  void fetch(HttpRequest request, std::uint32_t object_id,
             HttpConnection::ResponseCallback on_response);

  /// Total connections opened over the pool's lifetime (Table 1 metric).
  [[nodiscard]] std::size_t connections_opened() const {
    return connections_opened_;
  }
  [[nodiscard]] std::size_t requests_issued() const {
    return requests_issued_;
  }
  /// High-water mark of concurrently busy connections; bounded by
  /// max_total_connections.
  [[nodiscard]] std::size_t peak_concurrency() const {
    return peak_concurrency_;
  }

  /// Sum of TCP retransmissions across every connection the pool opened
  /// (zero unless the run enables loss recovery).
  [[nodiscard]] std::uint64_t retransmits() const;

 private:
  struct DomainState {
    std::vector<std::unique_ptr<HttpConnection>> conns;
    util::Fifo<std::tuple<HttpRequest, std::uint32_t,
                          HttpConnection::ResponseCallback>>
        backlog;
  };

  void dispatch(const std::string& domain, DomainState& state);
  void dispatch_all();

  sim::Scheduler& sched_;
  PathFactory path_factory_;
  EndpointResolver endpoint_resolver_;
  ConnIdAllocator conn_ids_;
  TcpParams params_;
  int max_conns_per_domain_;
  int max_total_connections_;
  std::size_t connections_opened_ = 0;
  std::size_t requests_issued_ = 0;
  std::size_t peak_concurrency_ = 0;
  /// Connections holding a request: the global cap's measure.
  std::size_t busy_ = 0;
  /// Requests waiting in any domain's backlog.
  std::size_t backlog_ = 0;
  std::map<std::string, DomainState> domains_;
};

}  // namespace parcel::net

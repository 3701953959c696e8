#include "net/http.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace parcel::net {

namespace {
// Typical mobile request head: method line, host, user-agent, accept,
// cookies. The constant matters only as uplink radio payload.
constexpr Bytes kRequestBaseBytes = 420;
constexpr Bytes kResponseHeaderBytes = 320;
}  // namespace

Bytes HttpRequest::wire_size() const {
  return kRequestBaseBytes + static_cast<Bytes>(url.str_size()) +
         static_cast<Bytes>(user_agent.size()) +
         static_cast<Bytes>(screen_info.size()) + body_bytes;
}

Bytes HttpResponse::wire_size() const {
  return kResponseHeaderBytes + (has_body() ? body_bytes : 0);
}

HttpConnection::HttpConnection(sim::Scheduler& sched, Path path,
                               HttpEndpoint& endpoint, TcpParams params,
                               std::uint32_t conn_id, int max_in_flight)
    : sched_(sched),
      endpoint_(endpoint),
      tcp_(sched, std::move(path), params, conn_id),
      max_in_flight_(max_in_flight) {
  if (max_in_flight_ < 1) {
    throw std::invalid_argument("HttpConnection: max_in_flight must be >= 1");
  }
}

void HttpConnection::fetch(HttpRequest request, std::uint32_t object_id,
                           ResponseCallback on_response) {
  queue_.push_back(
      Pending{std::move(request), object_id, std::move(on_response)});
  pump();
}

void HttpConnection::pump() {
  if (in_flight_ >= max_in_flight_ || queue_.empty()) return;
  if (!connected_) {
    if (!connecting_) {
      connecting_ = true;
      tcp_.connect([this] {
        connected_ = true;
        connecting_ = false;
        pump();
      });
    }
    return;
  }

  ++in_flight_;
  Pending p = std::move(queue_.front());
  queue_.pop_front();

  // Each stage runs once, so the request, the response and the callback
  // move down the chain instead of being copied or shared.
  Bytes req_bytes = p.request.wire_size();
  auto object_id = p.object_id;
  tcp_.send_to_server(
      req_bytes, object_id,
      [this, request = std::move(p.request), object_id,
       on_response = std::move(p.on_response)](TimePoint) mutable {
        endpoint_.handle(request, [this, object_id,
                                   on_response = std::move(on_response)](
                                      HttpResponse response) mutable {
          Bytes wire_size = response.wire_size();
          tcp_.stream_to_client(
              wire_size, object_id,
              [this, response = std::move(response),
               on_response = std::move(on_response)](TimePoint) {
                --in_flight_;
                on_response(response);
                pump();
              });
        });
      });
  // Multiplexed mode issues further requests without waiting.
  pump();
}

HttpClientPool::HttpClientPool(sim::Scheduler& sched, PathFactory path_factory,
                               EndpointResolver endpoint_resolver,
                               ConnIdAllocator conn_ids, TcpParams params,
                               int max_conns_per_domain,
                               int max_total_connections)
    : sched_(sched),
      path_factory_(std::move(path_factory)),
      endpoint_resolver_(std::move(endpoint_resolver)),
      conn_ids_(std::move(conn_ids)),
      params_(params),
      max_conns_per_domain_(max_conns_per_domain),
      max_total_connections_(max_total_connections) {
  if (max_conns_per_domain_ < 1 || max_total_connections_ < 1) {
    throw std::invalid_argument("HttpClientPool: need at least 1 connection");
  }
}

std::uint64_t HttpClientPool::retransmits() const {
  std::uint64_t n = 0;
  for (const auto& [_, state] : domains_) {
    for (const auto& c : state.conns) {
      n += c->tcp().retransmits();
    }
  }
  return n;
}

void HttpClientPool::dispatch_all() {
  for (auto& [domain, state] : domains_) {
    if (backlog_ == 0 ||
        busy_ >= static_cast<std::size_t>(max_total_connections_)) {
      return;
    }
    if (!state.backlog.empty()) dispatch(domain, state);
  }
}

void HttpClientPool::fetch(HttpRequest request, std::uint32_t object_id,
                           HttpConnection::ResponseCallback on_response) {
  // try_emplace copies the host only when the domain is new.
  auto it = domains_.try_emplace(request.url.host()).first;
  it->second.backlog.emplace_back(std::move(request), object_id,
                                  std::move(on_response));
  ++backlog_;
  dispatch(it->first, it->second);
}

void HttpClientPool::dispatch(const std::string& domain, DomainState& state) {
  while (!state.backlog.empty()) {
    // Browsers cap concurrent connections globally as well as per domain.
    if (busy_ >= static_cast<std::size_t>(max_total_connections_)) return;
    // Prefer an idle existing connection.
    HttpConnection* conn = nullptr;
    for (auto& c : state.conns) {
      if (!c->busy()) {
        conn = c.get();
        break;
      }
    }
    if (conn == nullptr &&
        state.conns.size() < static_cast<std::size_t>(max_conns_per_domain_)) {
      HttpEndpoint* endpoint = endpoint_resolver_(domain);
      if (endpoint == nullptr) {
        throw std::runtime_error("HttpClientPool: unknown domain " + domain);
      }
      state.conns.push_back(std::make_unique<HttpConnection>(
          sched_, path_factory_(domain), *endpoint, params_, conn_ids_()));
      ++connections_opened_;
      conn = state.conns.back().get();
    }
    if (conn == nullptr) {
      // All connections busy and at the cap; requests wait in the backlog
      // and are re-dispatched as responses complete.
      return;
    }
    auto [request, object_id, cb] = std::move(state.backlog.front());
    state.backlog.pop_front();
    --backlog_;
    ++requests_issued_;
    ++busy_;
    peak_concurrency_ = std::max(peak_concurrency_, busy_);
    conn->fetch(std::move(request), object_id,
                [this, cb = std::move(cb)](const HttpResponse& resp) {
                  // The connection is idle again by the time it answers.
                  --busy_;
                  cb(resp);
                  dispatch_all();
                });
  }
}

}  // namespace parcel::net

#include "browser/cloud_browser.hpp"

#include <stdexcept>
#include <string>

#include "util/strings.hpp"

namespace parcel::browser {

CloudBrowserProxy::CloudBrowserProxy(net::Network& network,
                                     CloudBrowserConfig config, util::Rng rng)
    : network_(network), config_(config), rng_(std::move(rng)) {}

void CloudBrowserProxy::handle(const net::HttpRequest& request,
                               Responder respond) {
  if (request.method == net::HttpMethod::kGet) {
    // Fresh engine per page load (one page per session in our runs).
    fetcher_ = std::make_unique<NetworkFetcher>(network_, "proxy",
                                                config_.proxy_fetch,
                                                rng_.fork());
    engine_ = std::make_unique<BrowserEngine>(
        network_.scheduler(), *fetcher_, config_.proxy_fetch.engine,
        rng_.fork(), "cb-proxy");
    // The onload hook is a copyable std::function, so it shares the
    // move-only responder.
    auto respond_ptr = std::make_shared<Responder>(std::move(respond));
    net::Url page_url = request.url;
    BrowserEngine::Callbacks cbs;
    cbs.on_onload = [this, page_url, respond_ptr](TimePoint) {
      // Snapshot of the rendered page: compressed blocking bytes. The
      // transformation itself takes proxy time (the paper notes this can
      // extend the radio-high window for transformation-heavy proxies).
      util::Bytes raw = engine_->ledger().completed_bytes();
      auto snapshot_bytes = static_cast<util::Bytes>(
          static_cast<double>(raw) * config_.snapshot_compression);
      Duration transform =
          config_.transform_per_mb *
          (static_cast<double>(raw) / (1024.0 * 1024.0));
      network_.scheduler().schedule_after(
          transform, [this, page_url, snapshot_bytes, respond_ptr] {
            net::HttpResponse resp;
            resp.status = 200;
            resp.url = page_url;
            resp.content_type = "application/x-cb-snapshot";
            resp.body_bytes = snapshot_bytes;
            (*respond_ptr)(resp);
          });
    };
    engine_->load(page_url, std::move(cbs));
    return;
  }

  // POST = interaction event: /click/<index>. The index arrives off the
  // wire, so a click before any load (400) or on a handler the page
  // never registered (404 — e.g. its script failed under origin errors)
  // is answered, not trusted.
  auto reject = [&](int status) {
    net::HttpResponse resp;
    resp.status = status;
    resp.url = request.url;
    resp.body_bytes = 128;
    respond(resp);
  };
  if (!engine_) {
    reject(400);
    return;
  }
  const std::string& path = request.url.path();
  auto slash = path.rfind('/');
  int index = std::stoi(path.substr(slash + 1));
  if (!engine_->has_click_handler(index)) {
    reject(404);
    return;
  }
  auto respond_ptr = std::make_shared<Responder>(std::move(respond));
  net::Url url = request.url;
  engine_->click(index, [this, url, respond_ptr] {
    net::HttpResponse resp;
    resp.status = 200;
    resp.url = url;
    resp.content_type = "application/x-cb-delta";
    // Delta snapshot: the newly displayed region re-rendered.
    resp.body_bytes = config_.click_delta_overhead +
                      static_cast<util::Bytes>(
                          60e3 * config_.snapshot_compression);
    (*respond_ptr)(resp);
  });
}

CloudBrowserClient::CloudBrowserClient(net::Network& network,
                                       const std::string& proxy_domain,
                                       CloudBrowserConfig config)
    : network_(network),
      config_(config),
      main_thread_(network.scheduler()) {
  net::HttpEndpoint* endpoint = network.endpoint(proxy_domain);
  if (endpoint == nullptr) {
    throw std::invalid_argument("CloudBrowserClient: proxy not registered: " +
                                proxy_domain);
  }
  conn_ = std::make_unique<net::HttpConnection>(
      network.scheduler(), network.route("client", proxy_domain), *endpoint,
      config.tcp, network.next_conn_id());
}

void CloudBrowserClient::load(const net::Url& url,
                              std::function<void(TimePoint)> on_loaded) {
  std::uint32_t id = ledger_.register_object(url, web::ObjectType::kHtml,
                                             /*blocking=*/true,
                                             network_.scheduler().now());
  net::HttpRequest request;
  request.url = url;
  conn_->fetch(std::move(request), id,
               [this, id, on_loaded = std::move(on_loaded)](
                   const net::HttpResponse& resp) {
                 ledger_.complete(id, resp.body_bytes,
                                  network_.scheduler().now(),
                                  resp.status != 200);
                 // Thin render: no JS, just raster the snapshot.
                 Duration render = Duration::seconds(
                     static_cast<double>(resp.body_bytes) /
                     config_.client.parse_bytes_per_sec);
                 main_thread_.post(render, false, [this, on_loaded] {
                   on_loaded(network_.scheduler().now());
                 });
               });
}

void CloudBrowserClient::click(int index, std::function<void()> on_done) {
  net::Url url = net::Url::parse("http://cb.proxy.example/click/" +
                                 std::to_string(index));
  std::uint32_t id = ledger_.register_object(url, web::ObjectType::kJson,
                                             /*blocking=*/false,
                                             network_.scheduler().now());
  net::HttpRequest request;
  request.method = net::HttpMethod::kPost;
  request.url = url;
  request.body_bytes = 180;  // serialized UI event
  conn_->fetch(std::move(request), id,
               [this, id, on_done = std::move(on_done)](
                   const net::HttpResponse& resp) {
                 ledger_.complete(id, resp.body_bytes,
                                  network_.scheduler().now(),
                                  resp.status != 200);
                 Duration render = Duration::seconds(
                     static_cast<double>(resp.body_bytes) /
                     config_.client.parse_bytes_per_sec);
                 main_thread_.post(render, false, on_done);
               });
}

}  // namespace parcel::browser

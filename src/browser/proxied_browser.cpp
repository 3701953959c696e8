#include "browser/proxied_browser.hpp"

#include <stdexcept>

namespace parcel::browser {

RelayProxy::RelayProxy(net::Network& network, DirConfig fetch_config,
                       util::Rng rng)
    : network_(network),
      rng_(rng.fork()),
      dns_(network.scheduler(), network.route("proxy", "dns"),
           fetch_config.dns_latency, rng.fork(),
           [&network] { return network.next_conn_id(); }),
      pool_(
          network.scheduler(),
          [&network](const std::string& domain) {
            return network.route("proxy", domain);
          },
          [&network](const std::string& domain) {
            return network.endpoint(domain);
          },
          [&network] { return network.next_conn_id(); }, fetch_config.tcp,
          fetch_config.max_conns_per_domain,
          fetch_config.max_total_connections) {}

void RelayProxy::handle(const net::HttpRequest& request,
                        Responder respond) {
  ++relayed_;
  net::HttpRequest upstream = request;
  dns_.resolve(request.url.host_id(),
               [this, upstream = std::move(upstream),
                respond = std::move(respond)]() mutable {
                 pool_.fetch(std::move(upstream), /*object_id=*/0,
                             [respond = std::move(respond)](
                                 const net::HttpResponse& response) {
                               respond(response);
                             });
               });
}

ProxiedBrowserConfig ProxiedBrowserConfig::http_proxy() {
  ProxiedBrowserConfig cfg;
  cfg.client_connections = 6;
  cfg.streams_per_connection = 1;
  return cfg;
}

ProxiedBrowserConfig ProxiedBrowserConfig::spdy_proxy() {
  ProxiedBrowserConfig cfg;
  cfg.client_connections = 1;
  cfg.streams_per_connection = 32;
  return cfg;
}

ProxiedBrowser::ProxiedFetcher::ProxiedFetcher(
    net::Network& network, const std::string& proxy_domain,
    const ProxiedBrowserConfig& config, util::Rng rng)
    : rng_(std::move(rng)) {
  net::HttpEndpoint* endpoint = network.endpoint(proxy_domain);
  if (endpoint == nullptr) {
    throw std::invalid_argument("ProxiedBrowser: proxy not registered: " +
                                proxy_domain);
  }
  for (int i = 0; i < config.client_connections; ++i) {
    conns_.push_back(std::make_unique<net::HttpConnection>(
        network.scheduler(), network.route("client", proxy_domain), *endpoint,
        config.tcp, network.next_conn_id(), config.streams_per_connection));
  }
}

net::HttpConnection& ProxiedBrowser::ProxiedFetcher::pick_connection() {
  // Prefer an idle connection; otherwise round-robin (mirrors browsers
  // spreading requests over their proxy connections).
  for (auto& conn : conns_) {
    if (!conn->busy()) return *conn;
  }
  net::HttpConnection& conn = *conns_[next_];
  next_ = (next_ + 1) % conns_.size();
  return conn;
}

void ProxiedBrowser::ProxiedFetcher::fetch(
    const net::Url& url, web::ObjectType hint, bool randomized,
    std::uint32_t object_id, FetchCallback on_result) {
  ++requests;
  net::Url final_url = url;
  if (randomized) {
    final_url = net::Url::parse(
        url.str() + (url.query().empty() ? "?r=" : "&r=") +
        std::to_string(rng_.uniform_int(100000, 999999)));
  }
  net::HttpRequest request;
  request.url = final_url;
  pick_connection().fetch(std::move(request), object_id,
                          [hint, on_result = std::move(on_result)](
                              const net::HttpResponse& response) {
                            on_result(to_fetch_result(response, hint));
                          });
}

ProxiedBrowser::ProxiedBrowser(net::Network& network,
                               const std::string& proxy_domain,
                               ProxiedBrowserConfig config, util::Rng rng)
    : fetcher_(std::make_unique<ProxiedFetcher>(network, proxy_domain, config,
                                                rng.fork())),
      engine_(std::make_unique<BrowserEngine>(
          network.scheduler(), *fetcher_, config.engine, rng.fork(),
          config.streams_per_connection > 1 ? "spdy-proxy-client"
                                            : "http-proxy-client")) {}

void ProxiedBrowser::load(const net::Url& url,
                          BrowserEngine::Callbacks callbacks) {
  engine_->load(url, std::move(callbacks));
}

void ProxiedBrowser::click(int index, std::function<void()> on_done) {
  engine_->click(index, std::move(on_done));
}

std::size_t ProxiedBrowser::requests_issued() const {
  return fetcher_->requests;
}

}  // namespace parcel::browser

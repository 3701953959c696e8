#include "browser/dir_browser.hpp"

#include "util/strings.hpp"

namespace parcel::browser {

FetchResult to_fetch_result(const net::HttpResponse& response,
                            web::ObjectType hint) {
  FetchResult r;
  r.url = response.url;
  r.status = response.status;
  r.size = response.body_bytes;
  r.content = response.content;
  web::ObjectType mime_based = web::type_from_mime(response.content_type);
  bool both_js = (mime_based == web::ObjectType::kJs ||
                  mime_based == web::ObjectType::kJsAsync) &&
                 (hint == web::ObjectType::kJs ||
                  hint == web::ObjectType::kJsAsync);
  r.type = both_js ? hint : mime_based;
  return r;
}

NetworkFetcher::NetworkFetcher(net::Network& network,
                               const std::string& vantage, DirConfig config,
                               util::Rng rng)
    : network_(network),
      config_(config),
      rng_(rng.fork()),
      dns_(network.scheduler(), network.route(vantage, "dns"),
           config.dns_latency, rng.fork(),
           [&network] { return network.next_conn_id(); }),
      pool_(
          network.scheduler(),
          [&network, vantage](const std::string& domain) {
            return network.route(vantage, domain);
          },
          [&network](const std::string& domain) {
            return network.endpoint(domain);
          },
          [&network] { return network.next_conn_id(); }, config.tcp,
          config.max_conns_per_domain, config.max_total_connections) {}

void NetworkFetcher::fetch(const net::Url& url, web::ObjectType hint,
                           bool randomized, std::uint32_t object_id,
                           FetchCallback on_result) {
  net::Url final_url = url;
  if (randomized) {
    final_url = net::Url::parse(
        url.str() + (url.query().empty() ? "?r=" : "&r=") +
        std::to_string(rng_.uniform_int(100000, 999999)));
  }
  if (config_.object_timeout <= Duration::zero() &&
      config_.max_fetch_retries <= 0) {
    // Fair-weather fast path: no retry state, no timers. The URL and the
    // continuation move down the chain; each closure runs once.
    const net::UrlId host = final_url.host_id();
    dns_.resolve(host, [this, final_url = std::move(final_url), hint,
                        object_id, on_result = std::move(on_result)]() mutable {
      net::HttpRequest request;
      request.url = std::move(final_url);
      pool_.fetch(std::move(request), object_id,
                  [hint, on_result = std::move(on_result)](
                      const net::HttpResponse& response) {
                    on_result(to_fetch_result(response, hint));
                  });
    });
    return;
  }
  fetch_attempt(util::Rc<FetchState>::make(std::move(final_url), hint,
                                           object_id, std::move(on_result)));
}

void NetworkFetcher::fetch_attempt(const util::Rc<FetchState>& state) {
  if (config_.object_timeout > Duration::zero()) {
    state->timer = network_.scheduler().schedule_after(
        config_.object_timeout, [this, state] {
          if (state->done) return;
          ++fetch_timeouts_;
          if (state->attempt >= config_.max_fetch_retries) {
            // Out of retries: synthesize a gateway-timeout failure so the
            // engine marks the object failed and moves on — never hangs.
            state->done = true;
            FetchResult r;
            r.url = state->url;
            r.type = state->hint;
            r.status = 504;
            state->on_result(std::move(r));
            return;
          }
          retry_after_backoff(state);
        });
  }
  // The request goes out even when a timeout verdict came first (a DNS
  // answer can outlast the whole ladder); its response is then ignored.
  dns_.resolve(state->url.host_id(), [this, state] {
    net::HttpRequest request;
    request.url = state->url;
    pool_.fetch(std::move(request), state->object_id,
                [this, state](const net::HttpResponse& response) {
                  if (state->done) return;  // late copy after a verdict
                  if (response.status >= 500 &&
                      state->attempt < config_.max_fetch_retries) {
                    state->timer.cancel();
                    retry_after_backoff(state);
                    return;
                  }
                  state->done = true;
                  state->timer.cancel();
                  state->on_result(to_fetch_result(response, state->hint));
                });
  });
}

void NetworkFetcher::retry_after_backoff(const util::Rc<FetchState>& state) {
  ++state->attempt;
  ++fetch_retries_;
  Duration delay = config_.retry_backoff;
  for (int i = 1; i < state->attempt; ++i) delay = delay * 2.0;
  network_.scheduler().schedule_after(delay, [this, state] {
    if (state->done) return;
    fetch_attempt(state);
  });
}

void NetworkFetcher::post(
    const net::Url& url, util::Bytes body_bytes,
    std::function<void(const net::HttpResponse&)> on_response) {
  dns_.resolve(url.host_id(), [this, url, body_bytes,
                            on_response = std::move(on_response)] {
    net::HttpRequest request;
    request.method = net::HttpMethod::kPost;
    request.url = url;
    request.body_bytes = body_bytes;
    pool_.fetch(std::move(request), /*object_id=*/0, on_response);
  });
}

DirBrowser::DirBrowser(net::Network& network, DirConfig config, util::Rng rng)
    : network_(network),
      config_(config),
      engine_rng_(rng.fork()),
      fetcher_(std::make_unique<NetworkFetcher>(network, "client", config,
                                                rng.fork())),
      engine_(std::make_unique<BrowserEngine>(network.scheduler(), *fetcher_,
                                              config.engine,
                                              engine_rng_.fork(), "dir")) {}

void DirBrowser::load(const net::Url& url,
                      BrowserEngine::Callbacks callbacks) {
  if (engine_->completed() ||
      (engine_->ledger().count() > 0 && engine_->onload_fired())) {
    // Next page of the session: new engine, warm device cache.
    retired_engines_.push_back(std::move(engine_));
    engine_ = std::make_unique<BrowserEngine>(
        network_.scheduler(), *fetcher_, config_.engine, engine_rng_.fork(),
        "dir");
    engine_->preload_cache(retired_engines_.back()->cache());
  }
  engine_->load(url, std::move(callbacks));
}

void DirBrowser::click(int index, std::function<void()> on_done) {
  engine_->click(index, std::move(on_done));
}

}  // namespace parcel::browser

#include "web/origin_server.hpp"

#include <memory>

#include "net/fault_injector.hpp"

namespace parcel::web {

OriginServer::OriginServer(sim::Scheduler& sched, std::string domain)
    : sched_(sched), domain_(std::move(domain)) {}

void OriginServer::host(const WebPage& page) {
  for (const WebObject* obj : page.objects()) {
    if (obj->url.host() != domain_) continue;
    by_url_[obj->url.id()] = obj;
    by_normalized_[obj->url.normalized_id()] = obj;
  }
}

const WebObject* OriginServer::lookup(const net::Url& url) const {
  auto it = by_url_.find(url.id());
  if (it != by_url_.end() && it->second->url == url) return it->second;
  // Cache-busted URL: resolve via host+path identity; verify components.
  auto norm = by_normalized_.find(url.normalized_id());
  if (norm != by_normalized_.end() && norm->second->url.host() == url.host() &&
      norm->second->url.path() == url.path()) {
    return norm->second;
  }
  return nullptr;
}

void OriginServer::handle(const net::HttpRequest& request,
                          Responder respond) {
  ++served_;
  if (request.method == net::HttpMethod::kPost) {
    net::HttpResponse resp;
    resp.url = request.url;
    if (post_handler_) {
      resp = post_handler_(request);
    } else {
      resp.status = 204;
      resp.body_bytes = 0;
    }
    sched_.schedule_after(Duration::millis(20 * think_scale_),
                          [resp = std::move(resp),
                           respond = std::move(respond)]() mutable {
                            respond(std::move(resp));
                          });
    return;
  }

  net::HttpResponse resp;
  resp.url = request.url;
  Duration think = Duration::millis(15);
  if (faults_ != nullptr && faults_->server_error(sched_.now())) {
    // Injected backend failure: a quick 503, like a tripped load balancer.
    resp.status = 503;
    resp.content_type = "text/html";
    resp.body_bytes = 256;
  } else {
    const WebObject* obj = lookup(request.url);
    if (obj == nullptr) {
      ++not_found_;
      resp.status = 404;
      resp.content_type = "text/html";
      resp.body_bytes = 512;
    } else {
      resp.status = 200;
      resp.content_type = mime_type(obj->type);
      resp.body_bytes = obj->size;
      resp.content = obj->content;
      think = obj->server_think * think_scale_;
    }
  }
  if (faults_ != nullptr) think = think + faults_->server_stall(sched_.now());
  sched_.schedule_after(think, [resp = std::move(resp),
                                respond = std::move(respond)]() mutable {
    respond(std::move(resp));
  });
}

}  // namespace parcel::web

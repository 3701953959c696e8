#include "browser/engine.hpp"

#include <stdexcept>

#include "util/strings.hpp"
#include "web/css.hpp"
#include "web/js.hpp"
#include "web/parse_cache.hpp"

namespace parcel::browser {

BrowserEngine::BrowserEngine(sim::Scheduler& sched, Fetcher& fetcher,
                             EngineConfig config, util::Rng rng,
                             std::string name)
    : sched_(sched),
      fetcher_(fetcher),
      config_(config),
      rng_(std::move(rng)),
      name_(std::move(name)),
      main_thread_(sched) {
  if (config_.parse_bytes_per_sec <= 0 || config_.js_units_per_sec <= 0) {
    throw std::invalid_argument("EngineConfig: rates must be positive");
  }
}

TimePoint BrowserEngine::onload_time() const {
  if (!onload_time_) throw std::logic_error(name_ + ": onload not fired");
  return *onload_time_;
}

TimePoint BrowserEngine::complete_time() const {
  if (!complete_time_) throw std::logic_error(name_ + ": not complete");
  return *complete_time_;
}

void BrowserEngine::preload_cache(const FetchCache& c) {
  if (load_started_) {
    throw std::logic_error(name_ + ": preload_cache after load()");
  }
  // parcel-lint: allow(unordered-iter) bulk insert hash-map -> hash-map: the destination is order-insensitive, so no ordering escapes
  cache_.insert(c.begin(), c.end());
}

void BrowserEngine::load(const net::Url& main_url, Callbacks callbacks) {
  if (load_started_) throw std::logic_error(name_ + ": load() called twice");
  load_started_ = true;
  main_url_ = main_url;
  callbacks_ = std::move(callbacks);
  issue_fetch(main_url, web::ObjectType::kHtml, /*blocking=*/true,
              /*randomized=*/false, /*parser_gate=*/false);
}

void BrowserEngine::issue_fetch(const net::Url& url, web::ObjectType hint,
                                bool blocking, bool randomized,
                                bool parser_gate) {
  net::UrlId key = url.id();
  bool warm_cache_hit = false;
  if (!randomized) {
    if (requested_.contains(key)) {
      // Deduplicated within this page; a parser gate on an in-flight
      // script is resolved by that script's own completion, so gating
      // here would deadlock — pages re-including the same script rely on
      // the first copy.
      if (parser_gate) {
        parser_gated_ = false;
        parser_step();
      }
      return;
    }
    requested_.insert(key);
    // Present from a previous page of the session (device cache): serve
    // locally — the content still gets processed (JS executed, CSS
    // scanned) but nothing crosses the network.
    warm_cache_hit = cache_.contains(key);
  }
  std::uint32_t id = ledger_.register_object(url, hint, blocking,
                                             sched_.now());
  if (blocking) ++outstanding_blocking_;
  ++outstanding_total_;
  if (warm_cache_hit) {
    ++cache_loads_;
    FetchResult cached = cache_.at(key);
    // Honour the current hint for the sync/async JS distinction.
    if ((cached.type == web::ObjectType::kJs ||
         cached.type == web::ObjectType::kJsAsync) &&
        (hint == web::ObjectType::kJs || hint == web::ObjectType::kJsAsync)) {
      cached.type = hint;
    }
    sched_.schedule_after(Duration::micros(300),
                          [this, id, blocking, parser_gate,
                           cached = std::move(cached)] {
                            on_fetch_result(id, blocking, parser_gate,
                                            cached);
                          });
    return;
  }
  ++fetches_issued_;
  fetcher_.fetch(url, hint, randomized, id,
                 [this, id, blocking, parser_gate](FetchResult result) {
                   on_fetch_result(id, blocking, parser_gate, result);
                 });
}

void BrowserEngine::on_fetch_result(std::uint32_t id, bool blocking,
                                    bool parser_gate,
                                    const FetchResult& result) {
  ledger_.complete(id, result.size, sched_.now(), !result.ok());
  cache_.emplace(ledger_.entry(id).url.id(), result);

  auto finish = [this, blocking, parser_gate] {
    if (blocking) --outstanding_blocking_;
    --outstanding_total_;
    if (parser_gate) {
      parser_gated_ = false;
      parser_step();
    }
    check_onload();
    check_complete();
  };

  if (!result.ok()) {
    finish();
    return;
  }

  switch (result.type) {
    case web::ObjectType::kHtml: {
      if (ledger_.entry(id).url == main_url_) {
        start_parse(result);
        finish();
      } else {
        finish();  // iframes not modelled; treated as opaque
      }
      break;
    }
    case web::ObjectType::kCss: {
      // Scanning the stylesheet costs main-thread time, then reveals
      // url() dependencies with the stylesheet's own blocking class.
      Duration cost = Duration::seconds(static_cast<double>(result.size) /
                                        config_.parse_bytes_per_sec);
      main_thread_.post(cost, blocking, [this, result, blocking, finish] {
        auto refs =
            web::ParseCache::instance().css(*result.content, result.content);
        reveal(*refs, result.url, blocking);
        finish();
      });
      break;
    }
    case web::ObjectType::kJs: {
      execute_script(*result.content, result.content, result.url, blocking,
                     finish);
      break;
    }
    case web::ObjectType::kJsAsync: {
      schedule_async_exec(result);
      finish();
      break;
    }
    default:
      finish();  // opaque payloads need no processing
  }
}

void BrowserEngine::start_parse(const FetchResult& html) {
  if (!html.content) {
    throw std::logic_error(name_ + ": main HTML without content");
  }
  ParseJob job;
  auto parsed = web::ParseCache::instance().html(*html.content, html.content);
  job.tokens = std::move(parsed.artifact);
  job.content = std::move(parsed.pin);
  job.base = html.url;
  double total_parse =
      static_cast<double>(html.size) / config_.parse_bytes_per_sec;
  job.per_token = Duration::seconds(
      total_parse / static_cast<double>(job.tokens->size() + 1));
  parse_ = std::move(job);
  parser_step();
}

void BrowserEngine::parser_step() {
  if (!parse_ || parser_gated_) return;
  if (parse_->next >= parse_->tokens->size()) {
    if (!parser_done_) {
      parser_done_ = true;
      check_onload();
      check_complete();
    }
    return;
  }
  std::size_t idx = parse_->next++;
  const web::HtmlToken& token = (*parse_->tokens)[idx];

  main_thread_.post(parse_->per_token, /*blocking=*/true, [this, &token] {
    switch (token.kind) {
      case web::HtmlToken::Kind::kReference: {
        const web::Reference& ref = token.ref;
        net::Url url = parse_->base.resolve(ref.target);
        bool is_sync_script = ref.expected_type == web::ObjectType::kJs;
        bool blocking = !ref.async;
        if (is_sync_script) {
          // Parser halts until the script is fetched and executed
          // (paper §2.1: inter-dependencies stall discovery).
          parser_gated_ = true;
          issue_fetch(url, ref.expected_type, blocking, ref.randomized,
                      /*parser_gate=*/true);
          return;  // no parser_step until the gate lifts
        }
        issue_fetch(url, ref.expected_type, blocking, ref.randomized,
                    /*parser_gate=*/false);
        parser_step();
        break;
      }
      case web::HtmlToken::Kind::kInlineScript: {
        // The inline body is a view into the string the tokens were
        // scanned from: the pin the html() lookup returned.
        execute_script(token.script, parse_->content, parse_->base,
                       /*blocking=*/true, [this] { parser_step(); });
        break;
      }
    }
  });
}

void BrowserEngine::execute_script(
    std::string_view code, const std::shared_ptr<const std::string>& pin,
    const net::Url& base, bool blocking, std::function<void()> after) {
  auto prog = web::ParseCache::instance().js(code, pin);
  Duration cost =
      Duration::seconds(prog->work_units / config_.js_units_per_sec);
  // The posted closure holds the artifact together with the pin the
  // lookup returned: the artifact's views borrow from that string (the
  // cache entry's on a hit, `pin`'s own with the cache disabled), so it
  // must outlive the execution.
  main_thread_.post(
      cost, blocking,
      [this, prog = std::move(prog), base, blocking,
       after = std::move(after)] {
        for (const auto& handler : prog->click_handlers) {
          click_handlers_[handler.click_index] = base.resolve(handler.target);
        }
        reveal(prog->references, base, blocking);
        after();
      });
}

void BrowserEngine::schedule_async_exec(FetchResult script) {
  ++pending_async_execs_;
  // Ad/widget scripts run after the load event with a randomized delay;
  // their requests are the paper's post-onload traffic. If onload has not
  // fired yet the execution waits for it (checked again on fire).
  double delay_s = rng_.uniform(config_.async_exec_min.sec(),
                                config_.async_exec_max.sec());
  auto run = [this, script = std::move(script)] {
    execute_script(*script.content, script.content, script.url,
                   /*blocking=*/false, [this] {
                     --pending_async_execs_;
                     check_complete();
                   });
  };
  if (onload_fired()) {
    sched_.schedule_after(Duration::seconds(delay_s), run);
  } else {
    pending_async_runs_.push_back(
        {Duration::seconds(delay_s), std::move(run)});
  }
}

void BrowserEngine::reveal(const std::vector<web::Reference>& refs,
                           const net::Url& base, bool blocking) {
  for (const auto& ref : refs) {
    net::Url url = base.resolve(ref.target);
    bool child_blocking = blocking && !ref.async;
    issue_fetch(url, ref.expected_type, child_blocking, ref.randomized,
                /*parser_gate=*/false);
  }
}

void BrowserEngine::check_onload() {
  if (onload_time_ || !parser_done_) return;
  if (outstanding_blocking_ != 0) return;
  if (main_thread_.pending_blocking() != 0) return;
  onload_time_ = sched_.now();
  // Release deferred async executions now that onload has fired.
  for (auto& pending : pending_async_runs_) {
    sched_.schedule_after(pending.first, std::move(pending.second));
  }
  pending_async_runs_.clear();
  if (callbacks_.on_onload) callbacks_.on_onload(*onload_time_);
}

void BrowserEngine::check_complete() {
  if (complete_time_ || !onload_time_) return;
  if (outstanding_total_ != 0 || pending_async_execs_ != 0) return;
  if (!pending_async_runs_.empty()) return;
  complete_time_ = sched_.now();
  if (callbacks_.on_complete) callbacks_.on_complete(*complete_time_);
}

void BrowserEngine::click(int index, std::function<void()> on_done) {
  auto it = click_handlers_.find(index);
  if (it == click_handlers_.end()) {
    throw std::invalid_argument(name_ + ": no click handler " +
                                std::to_string(index));
  }
  Duration cost =
      Duration::seconds(config_.click_work_units / config_.js_units_per_sec);
  net::Url target = it->second;
  main_thread_.post(cost, /*blocking=*/false,
                    [this, target, on_done = std::move(on_done)] {
                      if (cache_.contains(target.id())) {
                        on_done();
                        return;
                      }
                      // Not cached: fetch (counts as a new object).
                      std::uint32_t id = ledger_.register_object(
                          target, web::ObjectType::kImage, false,
                          sched_.now());
                      ++fetches_issued_;
                      fetcher_.fetch(target, web::ObjectType::kImage, false,
                                     id,
                                     [this, id, on_done](FetchResult result) {
                                       ledger_.complete(id, result.size,
                                                        sched_.now(),
                                                        !result.ok());
                                       cache_.emplace(result.url.id(),
                                                      result);
                                       on_done();
                                     });
                    });
}

}  // namespace parcel::browser

#include "layers.hpp"

#include <atomic>
#include <cstring>

#include "core/arena.hpp"
#include "core/testbed.hpp"
#include "ctrl/bundle_controller.hpp"
#include "lte/energy.hpp"
#include "sim/scheduler.hpp"
#include "trace/trace_analyzer.hpp"
#include "web/css.hpp"
#include "web/html.hpp"
#include "web/js.hpp"

namespace parcel::perf {

namespace {

/// Runs `body` under a span named `name`; returns the span's duration.
template <typename Body>
double span_ms(SpanRecorder& spans, const char* name, std::uint64_t op, int parent,
               Body&& body) {
  const int id = spans.open(name, op, parent);
  body();
  spans.close(id);
  return spans.duration_ms(id);
}

/// Self-rescheduling event: the bare kernel cost of one event, with none
/// of the payload a page load's events carry.
struct ChainLink {
  sim::Scheduler* sched;
  std::uint64_t left;
  void operator()() {
    if (--left > 0) sched->schedule_after(util::Duration::micros(1), *this);
  }
};

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

// Keeps the replicas' results observable so none is optimized away.
std::atomic<std::size_t> g_sink{0};

bool is_script(web::ObjectType t) {
  return t == web::ObjectType::kJs || t == web::ObjectType::kJsAsync;
}

}  // namespace

web::ParseCache::Stats cache_delta(const web::ParseCache::Stats& before,
                                   const web::ParseCache::Stats& after) {
  web::ParseCache::Stats d;
  d.html_hits = after.html_hits - before.html_hits;
  d.html_misses = after.html_misses - before.html_misses;
  d.css_hits = after.css_hits - before.css_hits;
  d.css_misses = after.css_misses - before.css_misses;
  d.js_hits = after.js_hits - before.js_hits;
  d.js_misses = after.js_misses - before.js_misses;
  return d;
}

void OpCounts::add(const core::RunResult& r, const web::ParseCache::Stats& delta) {
  ops += 1;
  events += static_cast<double>(r.events_executed);
  tcp_connections += static_cast<double>(r.tcp_connections);
  retransmits += static_cast<double>(r.retransmits);
  fault_drops += static_cast<double>(r.fault_drops);
  trace_records += static_cast<double>(r.trace.size());
  objects += static_cast<double>(r.objects_loaded);
  http_requests += static_cast<double>(r.radio_http_requests);
  ctrl_retunes += static_cast<double>(r.ctrl_retunes);
  arena_bytes += static_cast<double>(r.arena_bytes);
  arena_allocs += static_cast<double>(r.arena_allocations);
  promotions += static_cast<double>(r.radio.promotions_from_idle +
                                    r.radio.promotions_from_drx);
  cache_hits += static_cast<double>(delta.hits());
  cache_misses += static_cast<double>(delta.misses());
  if (!r.ok) unfinished += 1;
}

std::string trace_op_layers(SpanRecorder& spans, std::uint64_t op, core::Scheme scheme,
                            const web::WebPage& page, const core::RunConfig& config,
                            const core::RunResult& result, double op_ms,
                            const web::ParseCache::Stats& delta, LayerTimes& times) {
  ScopedSpan layers(spans, "op.layers", op);
  const int parent = layers.id();
  std::size_t sink = 0;

  // web: a fresh scan of every parseable object, one child span per
  // scanner. Inline <script> bodies found by the HTML scan run through
  // MiniJs with the external scripts.
  std::vector<std::string_view> scripts;
  std::size_t documents = 0;
  const int scan = spans.open("web.scan", op, parent);
  span_ms(spans, "web.scan.html", op, scan, [&] {
    for (const web::WebObject* obj : page.objects()) {
      if (obj->type != web::ObjectType::kHtml || !obj->content) continue;
      for (const web::HtmlToken& tok : web::MiniHtml::scan(*obj->content)) {
        if (tok.kind == web::HtmlToken::Kind::kInlineScript) scripts.push_back(tok.script);
        ++sink;
      }
      ++documents;
    }
  });
  span_ms(spans, "web.scan.css", op, scan, [&] {
    for (const web::WebObject* obj : page.objects()) {
      if (obj->type != web::ObjectType::kCss || !obj->content) continue;
      sink += web::MiniCss::scan(*obj->content).size();
      ++documents;
    }
  });
  span_ms(spans, "web.scan.js", op, scan, [&] {
    for (const web::WebObject* obj : page.objects()) {
      if (is_script(obj->type) && obj->content) scripts.push_back(*obj->content);
    }
    for (std::string_view code : scripts) sink += web::MiniJs::run(code).references.size();
    documents += scripts.size();
  });
  spans.close(scan);
  const double scan_ms = spans.duration_ms(scan);
  times.scan_ms += scan_ms;

  // web: the memoized path the engines take, on the now-warm cache.
  std::size_t lookups = 0;
  const double lookup_ms = span_ms(spans, "web.cache_lookup", op, parent, [&] {
    web::ParseCache& cache = web::ParseCache::instance();
    for (const web::WebObject* obj : page.objects()) {
      if (!obj->content) continue;
      if (obj->type == web::ObjectType::kHtml) {
        sink += cache.html(*obj->content, obj->content)->size();
      } else if (obj->type == web::ObjectType::kCss) {
        sink += cache.css(*obj->content, obj->content)->size();
      } else if (is_script(obj->type)) {
        sink += cache.js(*obj->content, obj->content)->references.size();
      } else {
        continue;
      }
      ++lookups;
    }
  });
  times.lookup_us += lookup_ms * 1e3;

  // core: testbed construction and page hosting, inside a run arena as
  // ExperimentRunner::run does it.
  const double testbed_ms = span_ms(spans, "core.testbed", op, parent, [&] {
    core::Arena arena;
    core::ArenaScope scope(arena);
    core::Testbed testbed(config.testbed);
    testbed.host_page(page);
  });
  times.testbed_us += testbed_ms * 1e3;

  // sim: a bare event chain as long as the op's event count.
  const double chain_ms = span_ms(spans, "sim.event_chain", op, parent, [&] {
    if (result.events_executed == 0) return;
    core::Arena arena;
    core::ArenaScope scope(arena);
    sim::Scheduler sched;
    sched.schedule_after(util::Duration::micros(1), ChainLink{&sched, result.events_executed});
    sched.run();
    sink += sched.events_executed();
  });
  times.chain_ns += chain_ms * 1e6;
  times.chain_events += static_cast<double>(result.events_executed);

  // trace: the capture's text form, and the accessors finalize reads.
  times.serialize_us += 1e3 * span_ms(spans, "trace.serialize", op, parent, [&] {
    sink += result.trace.serialize().size();
  });
  const double analyze_ms = span_ms(spans, "trace.analyze", op, parent, [&] {
    sink += static_cast<std::size_t>(result.trace.downlink_bytes());
    sink += static_cast<std::size_t>(result.trace.uplink_bytes());
    sink += result.trace.connection_count();
    if (config.testbed.faults.enabled()) {
      sink += static_cast<std::size_t>(
          trace::TraceAnalyzer::recovery_time(result.trace).sec() * 1e6);
    }
  });
  times.analyze_us += analyze_ms * 1e3;

  // lte: the ARO-style energy replay of the capture.
  std::string mismatch;
  const double lte_ms = span_ms(spans, "lte.analyze", op, parent, [&] {
    const lte::EnergyAnalyzer analyzer(config.testbed.radio.rrc);
    const lte::EnergyReport report = analyzer.analyze(result.trace, true);
    if (!same_bits(report.total.j(), result.radio.total.j())) {
      mismatch = "energy re-analysis of the capture gives " +
                 std::to_string(report.total.j()) + " J, the run reported " +
                 std::to_string(result.radio.total.j()) + " J";
    }
  });
  times.lte_us += lte_ms * 1e3;

  // ctrl: a fresh controller fed the capture, one record at a time.
  const double ctrl_ms = span_ms(spans, "ctrl.on_record", op, parent, [&] {
    ctrl::ControllerConfig cc = config.ctrl;
    cc.estimator.rrc = config.testbed.radio.rrc;
    ctrl::BundleController controller(
        cc, core::bundle_for(core::Scheme::kParcelAdaptive).threshold);
    for (const trace::PacketRecord& rec : result.trace.records()) {
      if (controller.on_record(rec)) ++sink;
    }
  });
  times.ctrl_ns += ctrl_ms * 1e6;
  times.ctrl_records += static_cast<double>(result.trace.size());

  // The op's own web cost is estimated from the replicas: a cache hit
  // costs one replica lookup, a miss one replica scan. The controller runs
  // inside the op only for PARCEL-ADAPT.
  const double per_lookup = lookups == 0 ? 0.0 : lookup_ms / static_cast<double>(lookups);
  const double per_scan = documents == 0 ? 0.0 : scan_ms / static_cast<double>(documents);
  double attributed = testbed_ms + chain_ms + analyze_ms + lte_ms +
                      per_lookup * static_cast<double>(delta.hits()) +
                      per_scan * static_cast<double>(delta.misses());
  if (scheme == core::Scheme::kParcelAdaptive) attributed += ctrl_ms;
  times.unattributed_ms += op_ms - attributed;
  times.ops += 1;

  g_sink.store(sink, std::memory_order_relaxed);
  return mismatch;
}

const char* op_span_name(core::Scheme scheme) {
  switch (scheme) {
    case core::Scheme::kDir: return "run DIR";
    case core::Scheme::kHttpProxy: return "run HTTP-PROXY";
    case core::Scheme::kSpdyProxy: return "run SPDY-PROXY";
    case core::Scheme::kParcelInd: return "run PARCEL(IND)";
    case core::Scheme::kParcelOnld: return "run PARCEL(ONLD)";
    case core::Scheme::kParcel512K: return "run PARCEL(512K)";
    case core::Scheme::kParcel1M: return "run PARCEL(1M)";
    case core::Scheme::kParcel2M: return "run PARCEL(2M)";
    case core::Scheme::kCloudBrowser: return "run CB";
    case core::Scheme::kParcelAdaptive: return "run PARCEL-ADAPT";
  }
  return "run ?";
}

std::string scheme_key(core::Scheme scheme) {
  switch (scheme) {
    case core::Scheme::kDir: return "dir";
    case core::Scheme::kHttpProxy: return "http-proxy";
    case core::Scheme::kSpdyProxy: return "spdy-proxy";
    case core::Scheme::kParcelInd: return "parcel-ind";
    case core::Scheme::kParcelOnld: return "parcel-onld";
    case core::Scheme::kParcel512K: return "parcel-512k";
    case core::Scheme::kParcel1M: return "parcel-1m";
    case core::Scheme::kParcel2M: return "parcel-2m";
    case core::Scheme::kCloudBrowser: return "cb";
    case core::Scheme::kParcelAdaptive: return "parcel-adapt";
  }
  return "unknown";
}

}  // namespace parcel::perf

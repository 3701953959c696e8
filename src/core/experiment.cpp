#include "core/experiment.hpp"

#include <algorithm>
#include <stdexcept>
#include <string_view>

#include "browser/cloud_browser.hpp"
#include "browser/dir_browser.hpp"
#include "browser/proxied_browser.hpp"
#include "core/parallel_runner.hpp"
#include "core/session.hpp"
#include "net/fault_injector.hpp"
#include "trace/trace_analyzer.hpp"
#include "util/stats.hpp"

namespace parcel::core {

namespace {

// Every Scheme's display name, PARCEL-ness and starting threshold. An
// empty name is the threshold's BundleConfig::name().
struct SchemeRow {
  Scheme scheme;
  std::string_view name;
  bool parcel;
  Bytes threshold;
};

constexpr SchemeRow kSchemes[] = {
    {Scheme::kDir, "DIR", false, 0},
    {Scheme::kHttpProxy, "HTTP-PROXY", false, 0},
    {Scheme::kSpdyProxy, "SPDY-PROXY", false, 0},
    {Scheme::kParcelInd, "", true, 0},
    {Scheme::kParcelOnld, "", true, BundleConfig::kUnbounded},
    {Scheme::kParcel512K, "", true, util::kib(512)},
    {Scheme::kParcel1M, "", true, util::mib(1)},
    {Scheme::kParcel2M, "", true, util::mib(2)},
    {Scheme::kCloudBrowser, "CB", false, 0},
    // The controller's starting point before any samples fold; §6's
    // worked b* ≈ 0.9 MB at the median link rounds to the 1M rail, but
    // starting at 512K keeps the first bundle's latency low and lets the
    // estimator pull upward.
    {Scheme::kParcelAdaptive, "PARCEL-ADAPT", true, util::kib(512)},
};

const SchemeRow* row_of(Scheme s) {
  for (const SchemeRow& row : kSchemes) {
    if (row.scheme == s) return &row;
  }
  return nullptr;
}

browser::EngineConfig client_engine_config(const lte::DeviceProfile& device) {
  browser::EngineConfig cfg;
  cfg.parse_bytes_per_sec = device.parse_bytes_per_sec;
  cfg.js_units_per_sec = device.js_units_per_sec;
  return cfg;
}

browser::DirConfig proxy_fetch_config() {
  browser::DirConfig cfg = ProxyConfig{}.fetch;
  // Post-onload ad/widget scripts run promptly on a server-class engine;
  // on the device they straggle for seconds (EngineConfig defaults).
  cfg.engine.async_exec_min = util::Duration::millis(50);
  cfg.engine.async_exec_max = util::Duration::millis(600);
  // A well-provisioned server is not bound by a handset's socket budget.
  cfg.max_total_connections = 64;
  return cfg;
}

// Recovery machinery armed only under an active fault plan: fair-weather
// runs must stay byte-identical to a build without the fault layer, and
// armed timers consume scheduler sequence numbers even when they never
// fire.
constexpr util::Duration kObjectTimeout = util::Duration::seconds(8);
constexpr int kFetchRetries = 2;
constexpr util::Duration kRetryBackoff = util::Duration::millis(250);
constexpr util::Duration kStallDeadline = util::Duration::seconds(10);

void harden_fetch(browser::DirConfig& cfg) {
  cfg.tcp.loss_recovery = true;
  cfg.object_timeout = kObjectTimeout;
  cfg.max_fetch_retries = kFetchRetries;
  cfg.retry_backoff = kRetryBackoff;
}

void finalize_common(RunResult& result, Testbed& testbed,
                     const RunConfig& config) {
  testbed.client_trace().truncate_after(
      util::TimePoint::origin() + config.capture_window);
  // The testbed is torn down right after finalize; steal its trace
  // instead of copying a packet-per-event vector.
  result.trace = std::move(testbed.client_trace());
  lte::EnergyAnalyzer analyzer(config.testbed.radio.rrc);
  result.radio = analyzer.analyze(result.trace, /*include_decay_tail=*/true);
  result.downlink_bytes = result.trace.downlink_bytes();
  result.uplink_bytes = result.trace.uplink_bytes();
  result.tcp_connections = result.trace.connection_count();
  result.events_executed = testbed.scheduler().events_executed();
  if (const net::FaultInjector* faults = testbed.faults()) {
    result.fault_drops = faults->drops();
    result.fault_deferrals = faults->deferrals();
    result.recovery = trace::TraceAnalyzer::recovery_time(result.trace);
  }
}

/// The load tail every callback-driven scheme shares: onload and
/// completion stamp olt/tlt/ok, the scheduler runs out the capture
/// window, and a load that never completed takes its last captured
/// packet as TLT. `load` starts the page with the callbacks it is given.
template <typename Callbacks, typename Load>
void run_load(RunResult& result, Testbed& testbed, const RunConfig& config,
              Load&& load) {
  Callbacks cbs;
  cbs.on_onload = [&result](util::TimePoint t) {
    result.olt = t - util::TimePoint::origin();
  };
  cbs.on_complete = [&result](util::TimePoint t) {
    result.tlt = t - util::TimePoint::origin();
    result.ok = true;
  };
  load(std::move(cbs));
  testbed.scheduler().run_until(util::TimePoint::origin() +
                                config.capture_window);
  if (!result.ok && !testbed.client_trace().empty()) {
    result.tlt = testbed.client_trace().last_time() - util::TimePoint::origin();
  }
}

RunResult run_dir(const web::WebPage& page, const RunConfig& config) {
  Testbed testbed(config.testbed);
  testbed.host_page(page);

  browser::DirConfig dir_cfg;
  dir_cfg.engine = client_engine_config(config.device);
  if (config.testbed.faults.enabled()) harden_fetch(dir_cfg);
  browser::DirBrowser dir(testbed.network(), dir_cfg,
                          util::Rng(config.seed));

  RunResult result;
  result.scheme = Scheme::kDir;
  run_load<browser::BrowserEngine::Callbacks>(
      result, testbed, config,
      [&](auto cbs) { dir.load(page.main_url(), std::move(cbs)); });
  result.cpu_busy = dir.engine().cpu_busy();
  result.radio_http_requests = dir.fetcher().requests_issued();
  result.dns_lookups = dir.fetcher().dns_lookups();
  result.objects_loaded = dir.engine().ledger().count();
  result.retransmits = dir.fetcher().retransmits();
  finalize_common(result, testbed, config);
  return result;
}

RunResult run_parcel(Scheme scheme, const web::WebPage& page,
                     const RunConfig& config) {
  Testbed testbed(config.testbed);
  testbed.host_page(page);

  ParcelSessionConfig session_cfg;
  session_cfg.proxy.fetch = proxy_fetch_config();
  session_cfg.proxy.bundle = bundle_for(scheme);
  if (scheme == Scheme::kParcelAdaptive) {
    // Start inside the controller's target clamps: the default clamps
    // contain 512K, and pinned clamps start (and stay) at their value.
    config.ctrl.validate();
    session_cfg.proxy.bundle.threshold =
        std::clamp(session_cfg.proxy.bundle.threshold, config.ctrl.min_target,
                   config.ctrl.max_target);
  }
  session_cfg.proxy.inactivity_window = config.proxy_inactivity_window;
  session_cfg.client_engine = client_engine_config(config.device);
  session_cfg.proxy_domain = Testbed::kProxyDomain;
  const sim::FaultPlan& plan = config.testbed.faults;
  if (plan.enabled()) {
    // Client-proxy transport recovers from injected loss; the stall
    // watchdog backs the whole PARCEL path with the degradation ladder
    // (DESIGN.md §7). The proxy's own fetcher retries origin 503s.
    session_cfg.tcp.loss_recovery = true;
    session_cfg.stall_deadline = kStallDeadline;
    session_cfg.direct_fetch.engine = session_cfg.client_engine;
    harden_fetch(session_cfg.direct_fetch);
    harden_fetch(session_cfg.proxy.fetch);
  }

  ParcelSession session(testbed.network(), session_cfg,
                        util::Rng(config.seed));

  // Closed-loop adaptive bundling (ISSUE 10). The controller only exists
  // for kParcelAdaptive: every other scheme never installs the listener,
  // consumes no RNG and arms no events, so their traces stay
  // byte-identical to a build without the ctrl layer. The tap itself only
  // reads records, so an adaptive run whose target clamps pin the
  // threshold is byte-identical to the fixed scheme. The controller is
  // deterministic integer state fed in record order — bitwise identical
  // across --jobs.
  std::optional<ctrl::BundleController> controller;
  if (scheme == Scheme::kParcelAdaptive) {
    ctrl::ControllerConfig ctrl_cfg = config.ctrl;
    // The estimator's CR gate and promotion compensation must describe
    // the radio this run actually uses.
    ctrl_cfg.estimator.rrc = config.testbed.radio.rrc;
    controller.emplace(ctrl_cfg, session_cfg.proxy.bundle.threshold);
    testbed.client_trace().set_burst_listener(
        [&controller, &session](const trace::PacketRecord& r) {
          if (auto next = controller->on_record(r)) {
            session.retune_bundle_threshold(*next);
          }
        });
  }

  if (plan.proxy_crash_at) {
    testbed.scheduler().schedule_at(*plan.proxy_crash_at, [&session, &testbed] {
      session.inject_proxy_crash();
      testbed.client_trace().record_fault(
          trace::FaultEvent{testbed.scheduler().now(),
                            trace::FaultKind::kProxyCrash, 0, 0});
    });
    if (plan.proxy_restart_after) {
      testbed.scheduler().schedule_at(
          *plan.proxy_crash_at + *plan.proxy_restart_after,
          [&session, &testbed] {
            session.inject_proxy_restart();
            testbed.client_trace().record_fault(
                trace::FaultEvent{testbed.scheduler().now(),
                                  trace::FaultKind::kProxyRestart, 0, 0});
          });
    }
  }

  RunResult result;
  result.scheme = scheme;
  run_load<ParcelSession::Callbacks>(
      result, testbed, config,
      [&](auto cbs) { session.load(page.main_url(), std::move(cbs)); });
  result.cpu_busy = session.client_engine().cpu_busy();
  // One URL request plus any fallback GETs cross the radio.
  result.fallbacks = session.client_fetcher().fallback_requests();
  result.radio_http_requests = 1 + result.fallbacks;
  result.dns_lookups = 0;
  result.objects_loaded = session.client_engine().ledger().count();
  result.bundles = session.bundles_delivered();
  result.retransmits = session.transport_retransmits();
  if (session.degraded()) {
    result.degraded = true;
    result.direct_fetches = session.client_fetcher().direct_fetches();
    testbed.client_trace().record_fault(trace::FaultEvent{
        *session.degraded_at(), trace::FaultKind::kDegraded, 0, 0});
  }
  if (controller) {
    // Detach the live tap before the trace is handed off to RunResult —
    // the moved trace must not carry a listener into captures that
    // outlive the controller's stack frame.
    testbed.client_trace().set_burst_listener(nullptr);
    result.ctrl_retunes = controller->retunes();
    result.ctrl_goodput_bps = controller->estimator().goodput_bps();
    result.ctrl_rtt_us = controller->estimator().rtt_us();
    result.ctrl_threshold = controller->threshold();
  }
  finalize_common(result, testbed, config);
  return result;
}

RunResult run_proxied(Scheme scheme, const web::WebPage& page,
                      const RunConfig& config) {
  Testbed testbed(config.testbed);
  testbed.host_page(page);

  browser::ProxiedBrowserConfig cfg =
      scheme == Scheme::kSpdyProxy
          ? browser::ProxiedBrowserConfig::spdy_proxy()
          : browser::ProxiedBrowserConfig::http_proxy();
  cfg.engine = client_engine_config(config.device);
  browser::DirConfig relay_cfg = proxy_fetch_config();
  if (config.testbed.faults.enabled()) {
    cfg.tcp.loss_recovery = true;
    harden_fetch(relay_cfg);
  }

  util::Rng rng(config.seed);
  browser::RelayProxy relay(testbed.network(), relay_cfg, rng.fork());
  const std::string relay_domain = "relay.proxy.example";
  testbed.register_proxy_endpoint(relay_domain, relay);
  browser::ProxiedBrowser client(testbed.network(), relay_domain, cfg,
                                 rng.fork());

  RunResult result;
  result.scheme = scheme;
  run_load<browser::BrowserEngine::Callbacks>(
      result, testbed, config,
      [&](auto cbs) { client.load(page.main_url(), std::move(cbs)); });
  result.cpu_busy = client.engine().cpu_busy();
  result.radio_http_requests = client.requests_issued();
  result.dns_lookups = 0;  // the proxy resolves
  result.objects_loaded = client.engine().ledger().count();
  finalize_common(result, testbed, config);
  return result;
}

RunResult run_cloud(const web::WebPage& page, const RunConfig& config) {
  Testbed testbed(config.testbed);
  testbed.host_page(page);

  browser::CloudBrowserConfig cb_cfg;
  cb_cfg.proxy_fetch = proxy_fetch_config();
  cb_cfg.client = client_engine_config(config.device);
  if (config.testbed.faults.enabled()) harden_fetch(cb_cfg.proxy_fetch);

  util::Rng rng(config.seed);
  browser::CloudBrowserProxy proxy(testbed.network(), cb_cfg, rng.fork());
  const std::string cb_domain = "cb.proxy.example";
  testbed.register_proxy_endpoint(cb_domain, proxy);
  browser::CloudBrowserClient client(testbed.network(), cb_domain, cb_cfg);

  RunResult result;
  result.scheme = Scheme::kCloudBrowser;
  client.load(page.main_url(), [&](util::TimePoint t) {
    result.olt = t - util::TimePoint::origin();
    result.tlt = result.olt;  // the snapshot is the whole transfer
    result.ok = true;
  });
  testbed.scheduler().run_until(util::TimePoint::origin() +
                                config.capture_window);
  result.cpu_busy = client.cpu_busy();
  result.radio_http_requests = 1;
  result.dns_lookups = 0;
  result.objects_loaded = client.ledger().count();
  finalize_common(result, testbed, config);
  return result;
}

}  // namespace

std::string to_string(Scheme s) {
  const SchemeRow* row = row_of(s);
  if (row == nullptr) return "?";
  if (row->name.empty()) return BundleConfig{row->threshold}.name();
  return std::string(row->name);
}

bool is_parcel(Scheme s) {
  const SchemeRow* row = row_of(s);
  return row != nullptr && row->parcel;
}

BundleConfig bundle_for(Scheme s) {
  if (!is_parcel(s)) {
    throw std::invalid_argument("bundle_for: not a PARCEL scheme");
  }
  return BundleConfig{row_of(s)->threshold};
}

RunResult ExperimentRunner::run(Scheme scheme, const web::WebPage& page,
                                const RunConfig& config) {
  // One arena per run, installed for this thread: the scheduler heap, the
  // capture trace's columns and the browsers' per-load bookkeeping all
  // bump out of it and are released wholesale when the run returns
  // (DESIGN.md §11). RunResult keeps default-resource containers, so
  // nothing escaping this frame can alias the arena.
  core::Arena arena;
  core::ArenaScope arena_scope(arena);
  RunResult result;
  switch (scheme) {
    case Scheme::kDir:
      result = run_dir(page, config);
      break;
    case Scheme::kHttpProxy:
    case Scheme::kSpdyProxy:
      result = run_proxied(scheme, page, config);
      break;
    case Scheme::kCloudBrowser:
      result = run_cloud(page, config);
      break;
    default:
      result = run_parcel(scheme, page, config);
      break;
  }
  result.arena_bytes = arena.bytes_allocated();
  result.arena_allocations = arena.allocation_count();
  return result;
}

std::vector<PageMedians> run_grid(const std::vector<const web::WebPage*>& pages,
                                  const std::vector<Scheme>& schemes,
                                  int rounds, const RunConfig& base,
                                  const GridSeeds& seeds, int jobs) {
  if (rounds <= 0) {
    throw std::invalid_argument("run_grid: rounds must be positive, got " +
                                std::to_string(rounds));
  }
  // Surface a malformed fault plan here with one clear error instead of
  // once per testbed construction on some worker.
  base.testbed.faults.validate();

  // Slot (p, r, s) holds the metrics the medians read; traces are dropped
  // on the worker that produced them.
  struct Sample {
    double olt, tlt, radio, cr, requests, conns;
  };
  const auto n_rounds = static_cast<std::size_t>(rounds);
  const std::size_t n_schemes = schemes.size();
  std::vector<Sample> samples(pages.size() * n_rounds * n_schemes);
  ParallelRunner(jobs).for_each_index(samples.size(), [&](std::size_t i) {
    const std::size_t p = i / (n_rounds * n_schemes);
    const std::size_t r = i / n_schemes % n_rounds;
    RunConfig cfg = base;
    cfg.seed = base.seed + seeds.offset + seeds.per_page * p +
               seeds.per_round * r;
    // Read by the testbed only when an AR(1) fade is configured.
    cfg.testbed.fade_seed = cfg.seed * seeds.fade_mul + 1;
    const RunResult result =
        ExperimentRunner::run(schemes[i % n_schemes], *pages[p], cfg);
    samples[i] = {result.olt.sec(),
                  result.tlt.sec(),
                  result.radio.total.j(),
                  result.radio.cr.j(),
                  static_cast<double>(result.radio_http_requests),
                  static_cast<double>(result.tcp_connections)};
  });

  std::vector<PageMedians> out(n_schemes);
  for (std::size_t s = 0; s < n_schemes; ++s) {
    PageMedians& m = out[s];
    for (std::size_t p = 0; p < pages.size(); ++p) {
      util::Summary olt, tlt, radio, cr, requests, conns;
      for (std::size_t r = 0; r < n_rounds; ++r) {
        const Sample& x = samples[(p * n_rounds + r) * n_schemes + s];
        olt.add(x.olt);
        tlt.add(x.tlt);
        radio.add(x.radio);
        cr.add(x.cr);
        requests.add(x.requests);
        conns.add(x.conns);
      }
      m.olt_sec.push_back(olt.median());
      m.tlt_sec.push_back(tlt.median());
      m.radio_j.push_back(radio.median());
      m.cr_j.push_back(cr.median());
      m.requests.push_back(requests.median());
      m.tcp_connections.push_back(conns.median());
      m.page_bytes.push_back(static_cast<double>(pages[p]->total_bytes()));
    }
  }
  return out;
}

}  // namespace parcel::core

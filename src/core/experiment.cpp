#include "core/experiment.hpp"

#include <algorithm>
#include <stdexcept>

#include "browser/cloud_browser.hpp"
#include "browser/dir_browser.hpp"
#include "browser/proxied_browser.hpp"
#include "core/parallel_runner.hpp"
#include "core/session.hpp"
#include "net/fault_injector.hpp"
#include "trace/trace_analyzer.hpp"
#include "util/stats.hpp"

namespace parcel::core {

std::string to_string(Scheme s) {
  switch (s) {
    case Scheme::kDir: return "DIR";
    case Scheme::kHttpProxy: return "HTTP-PROXY";
    case Scheme::kSpdyProxy: return "SPDY-PROXY";
    case Scheme::kParcelInd: return "PARCEL(IND)";
    case Scheme::kParcelOnld: return "PARCEL(ONLD)";
    case Scheme::kParcel512K: return "PARCEL(512K)";
    case Scheme::kParcel1M: return "PARCEL(1M)";
    case Scheme::kParcel2M: return "PARCEL(2M)";
    case Scheme::kCloudBrowser: return "CB";
    case Scheme::kParcelAdaptive: return "PARCEL-ADAPT";
  }
  return "?";
}

bool is_parcel(Scheme s) {
  switch (s) {
    case Scheme::kParcelInd:
    case Scheme::kParcelOnld:
    case Scheme::kParcel512K:
    case Scheme::kParcel1M:
    case Scheme::kParcel2M:
    case Scheme::kParcelAdaptive:
      return true;
    default:
      return false;
  }
}

BundleConfig bundle_for(Scheme s) {
  switch (s) {
    case Scheme::kParcelInd: return BundleConfig::ind();
    case Scheme::kParcelOnld: return BundleConfig::onload();
    case Scheme::kParcel512K: return BundleConfig::with_threshold(util::kib(512));
    case Scheme::kParcel1M: return BundleConfig::with_threshold(util::mib(1));
    case Scheme::kParcel2M: return BundleConfig::with_threshold(util::mib(2));
    // The controller's starting point before any samples fold; §6's
    // worked b* ≈ 0.9 MB at the median link rounds to the 1M rail, but
    // starting at 512K keeps the first bundle's latency low and lets the
    // estimator pull upward.
    case Scheme::kParcelAdaptive:
      return BundleConfig::with_threshold(util::kib(512));
    default:
      throw std::invalid_argument("bundle_for: not a PARCEL scheme");
  }
}

namespace {

browser::EngineConfig client_engine_config(const lte::DeviceProfile& device) {
  browser::EngineConfig cfg;
  cfg.parse_bytes_per_sec = device.parse_bytes_per_sec;
  cfg.js_units_per_sec = device.js_units_per_sec;
  return cfg;
}

browser::DirConfig proxy_fetch_config() {
  browser::DirConfig cfg;
  lte::DeviceProfile proxy = lte::DeviceProfile::proxy_server();
  cfg.engine.parse_bytes_per_sec = proxy.parse_bytes_per_sec;
  cfg.engine.js_units_per_sec = proxy.js_units_per_sec;
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
  if (const lte::FadeProcess* fade = testbed.fade()) {
    result.mean_signal_dbm = fade->mean_signal_dbm(
        util::TimePoint::origin() + result.tlt);
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

namespace {

std::vector<double> collect(const SchemeSeries& s,
                            double (*get)(const RunResult&)) {
  std::vector<double> out;
  out.reserve(s.runs.size());
  for (const auto& r : s.runs) out.push_back(get(r));
  return out;
}

}  // namespace

double SchemeSeries::median_olt_sec() const {
  return util::median(
      collect(*this, [](const RunResult& r) { return r.olt.sec(); }));
}
double SchemeSeries::median_tlt_sec() const {
  return util::median(
      collect(*this, [](const RunResult& r) { return r.tlt.sec(); }));
}
double SchemeSeries::median_radio_j() const {
  return util::median(
      collect(*this, [](const RunResult& r) { return r.radio.total.j(); }));
}
double SchemeSeries::median_cr_j() const {
  return util::median(
      collect(*this, [](const RunResult& r) { return r.radio.cr.j(); }));
}

RoundsOutcome run_rounds(const web::WebPage& page,
                         const std::vector<Scheme>& schemes,
                         const RoundsConfig& config) {
  if (config.rounds <= 0) {
    throw std::invalid_argument("run_rounds: rounds must be positive, got " +
                                std::to_string(config.rounds));
  }
  if (config.signal_tolerance_db < 0) {
    throw std::invalid_argument(
        "run_rounds: signal_tolerance_db must be >= 0, got " +
        std::to_string(config.signal_tolerance_db));
  }
  // Surface a malformed fault plan here with one clear error instead of
  // once per (round x scheme) testbed construction.
  config.base.testbed.faults.validate();

  RoundsOutcome outcome;
  outcome.rounds_total = config.rounds;
  if (schemes.empty()) return outcome;

  // Every run's seeds are a pure function of (base seed, round, scheme
  // slot), so the whole (round × scheme) grid can fan out across workers;
  // results land in their grid slot and the filtering below reads them in
  // the original serial order.
  std::vector<ExperimentTask> tasks;
  tasks.reserve(static_cast<std::size_t>(config.rounds) * schemes.size());
  for (int round = 0; round < config.rounds; ++round) {
    for (std::size_t i = 0; i < schemes.size(); ++i) {
      RunConfig run_cfg = config.base;
      // Back-to-back runs see different instantaneous radio conditions:
      // fade and workload seeds vary per (round, scheme) slot.
      run_cfg.seed = config.base.seed + 1000003ULL * round + 97ULL * i;
      run_cfg.testbed.fade_seed =
          config.base.testbed.fade_seed + 7919ULL * round + 31ULL * i + 1;
      tasks.push_back(ExperimentTask{schemes[i], &page, run_cfg});
    }
  }
  std::vector<RunResult> results = run_experiments(tasks, config.jobs);

  for (int round = 0; round < config.rounds; ++round) {
    auto* round_results =
        &results[static_cast<std::size_t>(round) * schemes.size()];
    if (config.discard_first_round && round == 0) continue;
    // Signal comparability filter (§7.2).
    double lo = round_results[0].mean_signal_dbm;
    double hi = lo;
    for (std::size_t i = 0; i < schemes.size(); ++i) {
      lo = std::min(lo, round_results[i].mean_signal_dbm);
      hi = std::max(hi, round_results[i].mean_signal_dbm);
    }
    if (hi - lo > config.signal_tolerance_db) continue;
    ++outcome.rounds_kept;
    for (std::size_t i = 0; i < schemes.size(); ++i) {
      outcome.series[schemes[i]].runs.push_back(std::move(round_results[i]));
    }
  }
  return outcome;
}

}  // namespace parcel::core

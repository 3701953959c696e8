#include "report.hpp"

#include <stdexcept>

namespace parcel::perf {

namespace {

const Metric* find_metric(const std::vector<Metric>& metrics, const std::string& name) {
  for (const Metric& m : metrics) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

json::Value metric_object(const std::vector<Metric>& metrics) {
  json::Value obj{json::Value::Object{}};
  for (const Metric& m : metrics) {
    json::Value entry{json::Value::Object{}};
    entry.set("value", m.value);
    entry.set("unit", m.unit);
    obj.set(m.name, std::move(entry));
  }
  return obj;
}

}  // namespace

const std::vector<std::string>& end_to_end_names() {
  static const std::vector<std::string> names = {
      "setup_s",       "ops_per_s",     "op_wall_ms_p50", "cpu_ms_per_op",
      "peak_rss_mib",  "sim_olt_s_p50", "sim_olt_s_p99",  "sim_radio_j_mean"};
  return names;
}

const std::vector<std::string>& per_layer_names() {
  static const std::vector<std::string> names = {
      "web.scan_ms_per_op",        "web.cache_lookup_us_per_op",
      "web.parse_cache_misses_per_op", "web.parse_cache_hit_ratio",
      "web.generate_ms_per_page",  "web.cache_entries_end",
      "web.sweep_ms_per_round",    "web.swept_entries_per_op",
      "replay.record_ms_per_page", "core.run_ms_p50",
      "core.testbed_us_per_op",    "core.arena_bytes_per_op",
      "core.arena_allocs_per_op",  "core.unattributed_ms_per_op",
      "core.unfinished_load_ratio", "sim.events_per_op",
      "sim.ns_per_event",          "net.tcp_connections_per_op",
      "net.retransmits_per_op",    "net.fault_drops_per_op",
      "net.retransmit_ratio",      "trace.records_per_op",
      "trace.serialize_us_per_op", "trace.analyze_us_per_op",
      "lte.analyze_us_per_op",     "lte.promotions_per_op",
      "browser.objects_per_op",    "browser.http_requests_per_op",
      "ctrl.on_record_ns",         "ctrl.retunes_per_op",
      "fleet.l1_hit_ratio",        "fleet.l2_hit_ratio",
      "fleet.epochs"};
  return names;
}

bool RunReport::correct() const {
  return hang.empty() && attempted > 0 && failed == 0 && digest_check != "mismatch" &&
         determinism != "mismatch";
}

json::Value RunReport::to_json() const {
  json::Value doc{json::Value::Object{}};
  doc.set("workload", workload);
  doc.set("seed", seed);
  doc.set("seconds", seconds);
  doc.set("traced", traced);
  doc.set("hardware_threads", static_cast<int>(hardware_threads));
  doc.set("correct", correct());
  doc.set("attempted", attempted);
  doc.set("failed", failed);
  doc.set("digest", digest);
  doc.set("digest_check", digest_check);
  doc.set("determinism", determinism);
  json::Value::Array fails;
  for (const std::string& f : failures) fails.emplace_back(f);
  doc.set("failures", std::move(fails));
  if (!hang.empty()) doc.set("hang", hang);
  doc.set("e2e", metric_object(e2e));
  doc.set("layers", metric_object(layers));
  return doc;
}

std::string RunReport::summary_line() const {
  std::vector<Metric> chosen;
  if (hang.empty()) {
    for (const std::string& name : traced ? per_layer_names() : end_to_end_names()) {
      const Metric* m = find_metric(traced ? layers : e2e, name);
      if (m == nullptr) throw std::logic_error("metric " + name + " was not computed");
      chosen.push_back(*m);
    }
  }
  json::Value line{json::Value::Object{}};
  line.set("correct", correct());
  line.set("attempted", attempted);
  line.set("failed", failed);
  line.set("metrics", metric_object(chosen));
  return line.dump();
}

void RunReport::print(std::FILE* out) const {
  std::fprintf(out, "parcel_bench  workload=%s  seed=%llu  seconds=%d  %s  hardware_threads=%u\n",
               workload.c_str(), static_cast<unsigned long long>(seed), seconds,
               traced ? "traced" : "untraced", hardware_threads);
  if (!e2e.empty()) std::fprintf(out, "end-to-end:\n");
  for (const Metric& m : e2e) {
    std::fprintf(out, "  %-34s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::fprintf(out, "%s:\n", traced ? "per-layer" : "per-layer counts");
  for (const Metric& m : layers) {
    std::fprintf(out, "  %-34s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::fprintf(out, "checks: %llu attempted, %llu failed; digest %s (%s); determinism %s\n",
               static_cast<unsigned long long>(attempted),
               static_cast<unsigned long long>(failed), digest.c_str(), digest_check.c_str(),
               determinism.c_str());
  for (const std::string& f : failures) std::fprintf(out, "  check failed: %s\n", f.c_str());
  std::fprintf(out, "correct: %s\n", correct() ? "yes" : "NO");
}

}  // namespace parcel::perf

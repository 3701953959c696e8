// Per-layer accounting. Counts come from the public result structs and
// are gathered on every run. Timings come from replicas: in a traced run,
// after an op's span closes, each layer's public entry point is called
// again on that op's inputs under its own span. Spans inside src/ would
// be exact; these replicas are the measurement available from outside.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "spans.hpp"
#include "web/parse_cache.hpp"
#include "web/page.hpp"

namespace parcel::perf {

/// Parse-cache counter movement across one op.
[[nodiscard]] web::ParseCache::Stats cache_delta(const web::ParseCache::Stats& before,
                                                 const web::ParseCache::Stats& after);

/// Sums of per-op counts read from RunResult and the parse-cache stats.
struct OpCounts {
  double ops = 0;
  double events = 0;
  double tcp_connections = 0;
  double retransmits = 0;
  double fault_drops = 0;
  double trace_records = 0;
  double objects = 0;
  double http_requests = 0;
  double ctrl_retunes = 0;
  double arena_bytes = 0;
  double arena_allocs = 0;
  double promotions = 0;
  double cache_hits = 0;
  double cache_misses = 0;
  double unfinished = 0;  // loads that did not complete in the capture window

  void add(const core::RunResult& r, const web::ParseCache::Stats& delta);
};

/// Wall time charged to each layer by the traced replicas.
struct LayerTimes {
  double ops = 0;
  double scan_ms = 0;
  double lookup_us = 0;
  double testbed_us = 0;
  double chain_ns = 0;
  double chain_events = 0;
  double serialize_us = 0;
  double analyze_us = 0;
  double lte_us = 0;
  double ctrl_ns = 0;
  double ctrl_records = 0;
  double unattributed_ms = 0;
  std::vector<double> generate_ms;  // per generated page
  std::vector<double> record_ms;    // per recorded page
};

/// Runs every layer replica for one finished op under an "op.layers" span
/// and charges `times`. `op_ms` is the op's own span; the remainder after
/// the replicas' estimated in-op share is charged to core.unattributed
/// (browser engine, net/TCP and event payload self time). Returns a
/// description of the first disagreement between a replica and the op's
/// result — re-analysing the capture must reproduce result.radio exactly —
/// or an empty string.
[[nodiscard]] std::string trace_op_layers(SpanRecorder& spans, std::uint64_t op,
                                          core::Scheme scheme, const web::WebPage& page,
                                          const core::RunConfig& config,
                                          const core::RunResult& result, double op_ms,
                                          const web::ParseCache::Stats& delta,
                                          LayerTimes& times);

/// The op span's name for `scheme`, e.g. "run PARCEL(IND)".
[[nodiscard]] const char* op_span_name(core::Scheme scheme);

/// Lowercase metric suffix for `scheme`, e.g. "parcel-ind".
[[nodiscard]] std::string scheme_key(core::Scheme scheme);

}  // namespace parcel::perf

#include "digest.hpp"

#include <cstdio>
#include <cstring>

namespace parcel::perf {

void Fnv1a::bytes(const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h_ ^= p[i];
    h_ *= 1099511628211ULL;
  }
}

void Fnv1a::u64(std::uint64_t v) { bytes(&v, sizeof v); }

void Fnv1a::f64(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  u64(bits);
}

void Fnv1a::str(std::string_view s) {
  u64(s.size());
  bytes(s.data(), s.size());
}

void fold_run(Fnv1a& digest, const core::RunResult& r) {
  digest.u64(static_cast<std::uint64_t>(r.scheme));
  digest.f64(r.olt.sec());
  digest.f64(r.tlt.sec());
  digest.f64(r.radio.total.j());
  digest.u64(static_cast<std::uint64_t>(r.downlink_bytes));
  digest.u64(r.events_executed);
  digest.str(r.trace.serialize());
}

void fold_fleet(Fnv1a& digest, const fleet::FleetMetrics& m) {
  digest.u64(static_cast<std::uint64_t>(m.admitted));
  digest.u64(static_cast<std::uint64_t>(m.shed));
  digest.u64(m.sessions_ok);
  for (double v : {m.olt_p50, m.olt_p95, m.olt_p99, m.wait_p50, m.wait_p95,
                   m.wait_p99, m.energy_j_total, m.proxy_busy_sec,
                   m.fetch_parse_sec}) {
    digest.f64(v);
  }
  digest.u64(m.store.hits);
  digest.u64(m.store.misses);
  digest.u64(m.l2.hits);
  digest.u64(m.l2.misses);
  digest.u64(m.compute.completed);
  digest.u64(static_cast<std::uint64_t>(m.epochs));
}

std::string hex(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016llx", static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace parcel::perf

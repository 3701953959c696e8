#include <gtest/gtest.h>

#include "digest.hpp"

namespace parcel::perf {
namespace {

core::RunResult sample_result() {
  core::RunResult r;
  r.scheme = core::Scheme::kParcelInd;
  r.ok = true;
  r.olt = util::Duration::seconds(1.25);
  r.tlt = util::Duration::seconds(2.5);
  r.downlink_bytes = 4096;
  r.events_executed = 321;
  for (std::uint32_t i = 0; i < 4; ++i) {
    trace::PacketRecord rec;
    rec.t = util::TimePoint::at_seconds(0.1 * i);
    rec.bytes = 1000 + i;
    rec.conn_id = 1;
    rec.object_id = i;
    r.trace.record(rec);
  }
  return r;
}

std::uint64_t digest_of(const core::RunResult& r) {
  Fnv1a d;
  fold_run(d, r);
  return d.value();
}

TEST(Digest, FnvOfKnownBytes) {
  Fnv1a d;
  d.bytes("a", 1);
  EXPECT_EQ(d.value(), 0xaf63dc4c8601ec8cULL);  // FNV-1a 64 of "a"
}

TEST(Digest, StableForTheSameResult) {
  const core::RunResult r = sample_result();
  EXPECT_EQ(digest_of(r), digest_of(r));
  EXPECT_EQ(digest_of(r), digest_of(sample_result()));
  EXPECT_EQ(hex(0x1234), "0x0000000000001234");
}

TEST(Digest, OneTraceByteChangesIt) {
  const core::RunResult a = sample_result();
  core::RunResult b = sample_result();
  trace::PacketRecord rec;
  rec.t = util::TimePoint::at_seconds(0.3);
  rec.bytes = 1;
  b.trace.clear();
  for (std::uint32_t i = 0; i < 4; ++i) {
    rec.t = util::TimePoint::at_seconds(0.1 * i);
    rec.bytes = 1000 + i + (i == 3 ? 1 : 0);  // 1003 -> 1004: one serialized byte
    rec.conn_id = 1;
    rec.object_id = i;
    b.trace.record(rec);
  }
  std::string sa = a.trace.serialize();
  std::string sb = b.trace.serialize();
  ASSERT_EQ(sa.size(), sb.size());
  std::size_t differing = 0;
  for (std::size_t i = 0; i < sa.size(); ++i) differing += sa[i] != sb[i] ? 1 : 0;
  ASSERT_EQ(differing, 1u);
  EXPECT_NE(digest_of(a), digest_of(b));
}

TEST(Digest, EverySimulatedFieldMovesIt) {
  const std::uint64_t base = digest_of(sample_result());
  core::RunResult r = sample_result();
  r.olt = util::Duration::seconds(1.2500001);
  EXPECT_NE(digest_of(r), base);
  r = sample_result();
  r.events_executed += 1;
  EXPECT_NE(digest_of(r), base);
  r = sample_result();
  r.scheme = core::Scheme::kDir;
  EXPECT_NE(digest_of(r), base);
}

}  // namespace
}  // namespace parcel::perf

#include <gtest/gtest.h>

#include "core/arena.hpp"
#include "trace/packet_trace.hpp"
#include "trace/trace_analyzer.hpp"

namespace parcel::trace {
namespace {

using util::Bytes;
using util::Duration;
using util::TimePoint;

PacketRecord rec(double t, Direction dir, PacketKind kind, Bytes bytes,
                 std::uint32_t conn, std::uint32_t obj) {
  return PacketRecord{TimePoint::at_seconds(t), dir, kind, bytes, conn, obj};
}

TEST(PacketTrace, KeepsRecordsSortedEvenWithInversions) {
  PacketTrace trace;
  trace.record(rec(2.0, Direction::kDownlink, PacketKind::kData, 10, 1, 1));
  trace.record(rec(1.0, Direction::kUplink, PacketKind::kSyn, 4, 1, 0));
  trace.record(rec(3.0, Direction::kDownlink, PacketKind::kData, 20, 1, 2));
  ASSERT_EQ(trace.size(), 3u);
  EXPECT_DOUBLE_EQ(trace.first_time().sec(), 1.0);
  EXPECT_DOUBLE_EQ(trace.last_time().sec(), 3.0);
}

TEST(PacketTrace, ByteAndDirectionAccounting) {
  PacketTrace trace;
  trace.record(rec(0.1, Direction::kUplink, PacketKind::kData, 100, 1, 0));
  trace.record(rec(0.2, Direction::kDownlink, PacketKind::kData, 900, 1, 1));
  EXPECT_EQ(trace.total_bytes(), 1000);
  EXPECT_EQ(trace.uplink_bytes(), 100);
  EXPECT_EQ(trace.downlink_bytes(), 900);
}

TEST(PacketTrace, FirstSynAndObjectTimes) {
  PacketTrace trace;
  trace.record(rec(0.5, Direction::kUplink, PacketKind::kSyn, 40, 1, 0));
  trace.record(rec(1.0, Direction::kDownlink, PacketKind::kData, 10, 1, 7));
  trace.record(rec(2.0, Direction::kDownlink, PacketKind::kData, 10, 1, 9));
  ASSERT_TRUE(trace.first_syn_time().has_value());
  EXPECT_DOUBLE_EQ(trace.first_syn_time()->sec(), 0.5);
  std::uint32_t objs[] = {7};
  auto last = trace.last_time_of_objects(objs);
  ASSERT_TRUE(last.has_value());
  EXPECT_DOUBLE_EQ(last->sec(), 1.0);
  std::uint32_t missing[] = {42};
  EXPECT_FALSE(trace.last_time_of_objects(missing).has_value());
}

TEST(PacketTrace, ConnectionCountAndTruncate) {
  PacketTrace trace;
  trace.record(rec(1, Direction::kUplink, PacketKind::kSyn, 40, 1, 0));
  trace.record(rec(2, Direction::kUplink, PacketKind::kSyn, 40, 2, 0));
  trace.record(rec(65, Direction::kDownlink, PacketKind::kData, 10, 3, 1));
  EXPECT_EQ(trace.connection_count(), 3u);
  trace.truncate_after(TimePoint::at_seconds(60));
  EXPECT_EQ(trace.size(), 2u);
  EXPECT_EQ(trace.connection_count(), 2u);
}

TEST(PacketTrace, SerializeRoundTrip) {
  PacketTrace trace;
  trace.record(rec(0.123456, Direction::kUplink, PacketKind::kSyn, 40, 3, 0));
  trace.record(rec(1.5, Direction::kDownlink, PacketKind::kData, 1448, 3, 9));
  PacketTrace copy = PacketTrace::deserialize(trace.serialize());
  ASSERT_EQ(copy.size(), 2u);
  EXPECT_EQ(copy.records()[1].bytes, 1448);
  EXPECT_EQ(copy.records()[1].object_id, 9u);
  EXPECT_EQ(copy.records()[0].kind, PacketKind::kSyn);
  EXPECT_THROW(PacketTrace::deserialize("garbage line"),
               std::invalid_argument);
}

TEST(PacketTrace, EmptyTraceEdgeCases) {
  PacketTrace trace;
  EXPECT_TRUE(trace.empty());
  EXPECT_THROW((void)trace.first_time(), std::logic_error);
  EXPECT_FALSE(trace.first_syn_time().has_value());
}

TEST(TraceAnalyzer, OltAndTltFromFirstSyn) {
  PacketTrace trace;
  trace.record(rec(1.0, Direction::kUplink, PacketKind::kSyn, 40, 1, 0));
  trace.record(rec(2.0, Direction::kDownlink, PacketKind::kData, 10, 1, 1));
  trace.record(rec(3.0, Direction::kDownlink, PacketKind::kData, 10, 1, 2));
  trace.record(rec(5.0, Direction::kDownlink, PacketKind::kData, 10, 1, 3));
  std::uint32_t onload[] = {1, 2};
  auto m = TraceAnalyzer::latency_metrics(trace, onload);
  ASSERT_TRUE(m.has_value());
  EXPECT_DOUBLE_EQ(m->olt.sec(), 2.0);  // 3.0 - 1.0
  EXPECT_DOUBLE_EQ(m->tlt.sec(), 4.0);  // 5.0 - 1.0
}

TEST(TraceAnalyzer, OltClampedToTlt) {
  PacketTrace trace;
  trace.record(rec(1.0, Direction::kUplink, PacketKind::kSyn, 40, 1, 0));
  trace.record(rec(2.0, Direction::kDownlink, PacketKind::kData, 10, 1, 1));
  std::uint32_t onload[] = {1};
  auto m = TraceAnalyzer::latency_metrics(trace, onload);
  ASSERT_TRUE(m.has_value());
  EXPECT_LE(m->olt, m->tlt);
}

TEST(TraceAnalyzer, NoSynMeansNoMetrics) {
  PacketTrace trace;
  trace.record(rec(1.0, Direction::kDownlink, PacketKind::kData, 10, 1, 1));
  std::uint32_t onload[] = {1};
  EXPECT_FALSE(TraceAnalyzer::latency_metrics(trace, onload).has_value());
}

TEST(TraceAnalyzer, GapCounting) {
  PacketTrace trace;
  for (double t : {0.0, 0.1, 1.5, 1.6, 4.0}) {
    trace.record(rec(t, Direction::kDownlink, PacketKind::kData, 10, 1, 1));
  }
  EXPECT_EQ(TraceAnalyzer::count_gaps_longer_than(trace,
                                                  Duration::seconds(1.0)),
            2u);
  // ACKs in either direction neither split a gap nor open one; data in
  // either direction does.
  for (double t : {0.6, 1.0}) {
    trace.record(rec(t, Direction::kDownlink, PacketKind::kAck, 40, 1, 1));
  }
  for (double t : {2.2, 2.9, 3.5}) {
    trace.record(rec(t, Direction::kUplink, PacketKind::kAck, 40, 1, 1));
  }
  trace.record(rec(5.5, Direction::kUplink, PacketKind::kData, 10, 1, 1));
  trace.record(rec(7.0, Direction::kUplink, PacketKind::kAck, 40, 1, 1));
  EXPECT_EQ(TraceAnalyzer::count_gaps_longer_than(trace,
                                                  Duration::seconds(1.0)),
            3u);
}

// ---- SoA layout regression suite (DESIGN.md §11) -----------------------
// The trace stores one column per PacketRecord field; these tests pin the
// properties the layout change must not move: serialized bytes, sorted
// insertion semantics, truncate behaviour over both channels, and the
// records()/fault_events() views matching the raw columns row for row.

TEST(PacketTraceSoA, FaultFreeSerializationPinnedByteForByte) {
  // A fault-free trace must serialize to exactly the pre-SoA text — the
  // replay store's on-disk format is part of the public surface.
  PacketTrace trace;
  trace.record(rec(0.123456, Direction::kUplink, PacketKind::kSyn, 40, 3, 0));
  trace.record(rec(1.5, Direction::kDownlink, PacketKind::kData, 1448, 3, 9));
  EXPECT_EQ(trace.serialize(),
            "0.123456 0 0 40 3 0\n"
            "1.500000 1 1 1448 3 9\n");
}

TEST(PacketTraceSoA, RoundTripWithFaultEvents) {
  PacketTrace trace;
  trace.record(rec(0.5, Direction::kUplink, PacketKind::kSyn, 40, 1, 0));
  trace.record(rec(1.0, Direction::kDownlink, PacketKind::kData, 1448, 1, 7));
  trace.record_fault(FaultEvent{TimePoint::at_seconds(0.75),
                                FaultKind::kBlackout, 512, 1});
  trace.record_fault(FaultEvent{TimePoint::at_seconds(0.9),
                                FaultKind::kLoss, 1448, 2});
  PacketTrace copy = PacketTrace::deserialize(trace.serialize());
  ASSERT_EQ(copy.size(), 2u);
  ASSERT_EQ(copy.fault_events().size(), 2u);
  EXPECT_EQ(copy.fault_events()[0].kind, FaultKind::kBlackout);
  EXPECT_EQ(copy.fault_events()[0].bytes, 512);
  EXPECT_EQ(copy.fault_events()[1].conn_id, 2u);
  EXPECT_EQ(copy.serialize(), trace.serialize());
}

TEST(PacketTraceSoA, TruncateDropsSuffixOfBothChannels) {
  PacketTrace trace;
  trace.record(rec(1, Direction::kUplink, PacketKind::kSyn, 40, 1, 0));
  trace.record(rec(2, Direction::kDownlink, PacketKind::kData, 10, 1, 1));
  trace.record(rec(61, Direction::kDownlink, PacketKind::kData, 10, 1, 2));
  trace.record_fault(
      FaultEvent{TimePoint::at_seconds(1.5), FaultKind::kLoss, 10, 1});
  trace.record_fault(
      FaultEvent{TimePoint::at_seconds(62), FaultKind::kBlackout, 10, 1});
  trace.truncate_after(TimePoint::at_seconds(60));
  EXPECT_EQ(trace.size(), 2u);
  ASSERT_EQ(trace.fault_events().size(), 1u);
  EXPECT_EQ(trace.fault_events()[0].kind, FaultKind::kLoss);
  // Cutoff exactly on a record keeps it (t <= cutoff semantics).
  trace.truncate_after(TimePoint::at_seconds(2));
  EXPECT_EQ(trace.size(), 2u);
}

TEST(PacketTraceSoA, ColumnsMatchRecordViewRowForRow) {
  PacketTrace trace;
  trace.record(rec(2.0, Direction::kDownlink, PacketKind::kData, 10, 4, 1));
  trace.record(rec(1.0, Direction::kUplink, PacketKind::kSyn, 4, 3, 0));
  trace.record(rec(3.0, Direction::kDownlink, PacketKind::kAck, 0, 4, 2));
  auto records = trace.records();
  ASSERT_EQ(records.size(), trace.times().size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    PacketRecord r = records[i];
    EXPECT_EQ(r.t, trace.times()[i]);
    EXPECT_EQ(r.dir, trace.directions()[i]);
    EXPECT_EQ(r.kind, trace.kinds()[i]);
    EXPECT_EQ(r.bytes, trace.sizes()[i]);
    EXPECT_EQ(r.conn_id, trace.conn_ids()[i]);
    EXPECT_EQ(r.object_id, trace.object_ids()[i]);
  }
  // Columns are sorted by time regardless of insertion order.
  EXPECT_DOUBLE_EQ(trace.times().front().sec(), 1.0);
  EXPECT_DOUBLE_EQ(trace.times().back().sec(), 3.0);
}

TEST(PacketTraceSoA, ViewIteratorsSupportRandomAccessAndRangeFor) {
  PacketTrace trace;
  for (double t : {0.5, 1.0, 2.0, 4.0}) {
    trace.record(rec(t, Direction::kDownlink, PacketKind::kData, 100, 1, 1));
  }
  auto records = trace.records();
  auto it = records.begin();
  EXPECT_EQ(records.end() - it, 4);
  EXPECT_DOUBLE_EQ((*(it + 2)).t.sec(), 2.0);
  EXPECT_DOUBLE_EQ(it[3].t.sec(), 4.0);
  EXPECT_DOUBLE_EQ(records.front().t.sec(), 0.5);
  EXPECT_DOUBLE_EQ(records.back().t.sec(), 4.0);
  double sum = 0;
  for (const auto& r : records) sum += r.t.sec();
  EXPECT_DOUBLE_EQ(sum, 7.5);
}

TEST(PacketTraceSoA, EqualTimestampInversionInsertsAfterEqualRecords) {
  // Matches the pre-SoA upper_bound semantics: a late record carrying an
  // already-seen timestamp lands after every record with that timestamp.
  PacketTrace trace;
  trace.record(rec(1.0, Direction::kDownlink, PacketKind::kData, 1, 1, 1));
  trace.record(rec(2.0, Direction::kDownlink, PacketKind::kData, 2, 1, 2));
  trace.record(rec(1.0, Direction::kDownlink, PacketKind::kData, 3, 1, 3));
  ASSERT_EQ(trace.size(), 3u);
  EXPECT_EQ(trace.records()[0].object_id, 1u);
  EXPECT_EQ(trace.records()[1].object_id, 3u);  // after the equal record
  EXPECT_EQ(trace.records()[2].object_id, 2u);
}

TEST(PacketTraceSoA, CopyAndClearPreserveBothChannels) {
  PacketTrace trace;
  trace.record(rec(1.0, Direction::kUplink, PacketKind::kSyn, 40, 1, 0));
  trace.record_fault(
      FaultEvent{TimePoint::at_seconds(2), FaultKind::kDegraded, 0, 0});
  PacketTrace copy = trace;
  EXPECT_EQ(copy.serialize(), trace.serialize());
  EXPECT_EQ(copy.fault_count(FaultKind::kDegraded), 1u);
  copy.clear();
  EXPECT_TRUE(copy.empty());
  EXPECT_TRUE(copy.fault_events().empty());
  EXPECT_EQ(trace.size(), 1u);  // the original is untouched
}

// ---- Equality: the trace's share of RunResult::operator== --------------

PacketTrace sample_trace(std::pmr::memory_resource* mr,
                         Bytes data_bytes = 1448) {
  PacketTrace trace(mr);
  trace.record(rec(0.5, Direction::kUplink, PacketKind::kSyn, 40, 1, 0));
  trace.record(
      rec(1.0, Direction::kDownlink, PacketKind::kData, data_bytes, 1, 7));
  trace.record_fault(
      FaultEvent{TimePoint::at_seconds(0.75), FaultKind::kLoss, 1448, 1});
  return trace;
}

TEST(PacketTraceEquality, SameRecordsAreEqualOnAnyResourceAndListener) {
  core::Arena arena;
  core::ArenaResource resource(arena);
  const PacketTrace heap = sample_trace(std::pmr::get_default_resource());
  PacketTrace pooled = sample_trace(&resource);
  EXPECT_TRUE(heap == pooled);
  pooled.set_burst_listener([](const PacketRecord&) {});
  EXPECT_TRUE(heap == pooled);
  EXPECT_TRUE(pooled == heap);
}

TEST(PacketTraceEquality, OneChangedByteOrExtraFaultIsUnequal) {
  const PacketTrace base = sample_trace(std::pmr::get_default_resource());
  EXPECT_FALSE(base == sample_trace(std::pmr::get_default_resource(), 1449));

  PacketTrace faulted = base;
  faulted.record_fault(
      FaultEvent{TimePoint::at_seconds(0.9), FaultKind::kBlackout, 0, 1});
  EXPECT_FALSE(base == faulted);
  EXPECT_EQ(faulted.size(), base.size());  // only the fault channel moved
}

TEST(TraceAnalyzer, CumulativeDownlinkBytes) {
  PacketTrace trace;
  trace.record(rec(1.0, Direction::kDownlink, PacketKind::kData, 100, 1, 1));
  // Only downlink data counts: not uplink data, not ACKs either way.
  trace.record(rec(1.5, Direction::kDownlink, PacketKind::kAck, 40, 1, 1));
  trace.record(rec(2.0, Direction::kUplink, PacketKind::kData, 50, 1, 0));
  trace.record(rec(2.2, Direction::kUplink, PacketKind::kAck, 40, 1, 0));
  trace.record(rec(3.0, Direction::kDownlink, PacketKind::kData, 200, 1, 2));
  trace.record(rec(4.0, Direction::kDownlink, PacketKind::kAck, 40, 1, 2));
  EXPECT_EQ(TraceAnalyzer::downlink_bytes_before(trace,
                                                 TimePoint::at_seconds(2.5)),
            100);
  EXPECT_EQ(TraceAnalyzer::downlink_bytes_before(trace,
                                                 TimePoint::at_seconds(9)),
            300);
}

}  // namespace
}  // namespace parcel::trace

// TraceRecorder ring semantics, snapshot/restore, counter throttling, and
// the Chrome trace-event export (DESIGN.md §11).
#include "obs/trace.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "fuzz/json_read.h"

namespace pmc::obs {
namespace {

TraceEvent ev(EventKind kind, int core, uint64_t t0, uint64_t t1,
              uint64_t addr = 0, uint16_t aux = 0, uint64_t arg = 0) {
  TraceEvent e;
  e.kind = kind;
  e.core = static_cast<int16_t>(core);
  e.aux = aux;
  e.len = 4;
  e.t0 = t0;
  e.t1 = t1;
  e.addr = addr;
  e.arg = arg;
  return e;
}

/// A small buffer exercising every export shape: run slices, nested memory
/// and sync slices, a NoC send (delivery slice + flow arrow), a counter
/// sample, and a core left running at the end of the buffer.
std::vector<TraceEvent> sample_events() {
  return {
      ev(EventKind::kDispatch, 0, 0, 0),
      ev(EventKind::kLoad, 0, 2, 6, 0x1000),
      ev(EventKind::kCacheMiss, 0, 2, 2, 0x1000),
      ev(EventKind::kStore, 0, 6, 8, 0x1004),
      ev(EventKind::kNocSend, 0, 8, 9, 0x2000, /*dst=*/1, /*arrival=*/14),
      ev(EventKind::kCounter, 0, 9, 9, 0, uint16_t(CounterId::kBusy), 7),
      ev(EventKind::kPark, 0, 10, 10, 0, /*done=*/1),
      ev(EventKind::kDispatch, 1, 12, 12),
      ev(EventKind::kLockAcquire, 1, 13, 20, 0, /*lock=*/3),
  };
}

TEST(EventNames, AreStableAndExhaustive) {
  // The names are part of the byte-equality contract; "?" would mean a
  // kind fell through the switch.
  for (int k = 0; k <= static_cast<int>(EventKind::kCounter); ++k) {
    EXPECT_STRNE(event_name(static_cast<EventKind>(k)), "?") << k;
  }
  for (int c = 0; c < kNumCounters; ++c) {
    EXPECT_STRNE(counter_name(static_cast<CounterId>(c)), "?") << c;
  }
  EXPECT_STREQ(event_name(EventKind::kDispatch), "dispatch");
  EXPECT_STREQ(event_name(EventKind::kCacheFill), "cache_fill");
  EXPECT_STREQ(counter_name(CounterId::kNocBytes), "noc_bytes");
}

TEST(TraceRecorder, StartsEmptyAndArmed) {
  TraceRecorder rec(8);
  EXPECT_TRUE(rec.armed());
  EXPECT_TRUE(rec.empty());
  EXPECT_EQ(rec.capacity(), 8u);
  EXPECT_EQ(rec.dropped(), 0u);
  rec.disarm();
  EXPECT_FALSE(rec.armed());
  rec.arm();
  EXPECT_TRUE(rec.armed());
}

TEST(TraceRecorder, ReturnsEventsOldestFirst) {
  TraceRecorder rec(8);
  for (uint64_t i = 0; i < 5; ++i) {
    rec.record(ev(EventKind::kCompute, 0, i, i + 1));
  }
  const auto events = rec.events();
  ASSERT_EQ(events.size(), 5u);
  for (uint64_t i = 0; i < 5; ++i) {
    EXPECT_EQ(events[i].t0, i);
  }
  EXPECT_EQ(rec.dropped(), 0u);
}

TEST(TraceRecorder, RingOverwritesOldestAndCountsDrops) {
  TraceRecorder rec(4);
  for (uint64_t i = 0; i < 7; ++i) {
    rec.record(ev(EventKind::kCompute, 0, i, i + 1));
  }
  EXPECT_EQ(rec.size(), 4u);
  EXPECT_EQ(rec.dropped(), 3u);
  const auto events = rec.events();
  ASSERT_EQ(events.size(), 4u);
  // The three oldest (t0 = 0, 1, 2) were overwritten.
  for (uint64_t i = 0; i < 4; ++i) {
    EXPECT_EQ(events[i].t0, i + 3);
  }
}

TEST(TraceRecorder, ClearResetsEverythingButArming) {
  TraceRecorder rec(4);
  for (uint64_t i = 0; i < 6; ++i) {
    rec.record(ev(EventKind::kCompute, 0, i, i));
  }
  rec.disarm();
  rec.clear();
  EXPECT_TRUE(rec.empty());
  EXPECT_EQ(rec.dropped(), 0u);
  EXPECT_FALSE(rec.armed());  // clear() drops data, not configuration
  EXPECT_TRUE(rec.counter_due(0, 0));  // sampling throttle reset too
}

TEST(TraceRecorder, CounterDueThrottlesPerCore) {
  TraceRecorder rec;
  rec.set_counter_period(100);
  EXPECT_TRUE(rec.counter_due(0, 10));    // first sample always fires
  EXPECT_FALSE(rec.counter_due(0, 109));  // within the period
  EXPECT_TRUE(rec.counter_due(0, 110));
  EXPECT_TRUE(rec.counter_due(3, 0));  // cores throttle independently
  EXPECT_FALSE(rec.counter_due(3, 99));
}

TEST(TraceRecorder, CounterPeriodZeroClampsToOne) {
  TraceRecorder rec;
  rec.set_counter_period(0);
  EXPECT_EQ(rec.counter_period(), 1u);
}

TEST(TraceRecorder, SnapshotRestoreRoundTripsByteIdentical) {
  TraceRecorder rec(16);
  rec.set_counter_period(64);
  for (const TraceEvent& e : sample_events()) rec.record(e);
  (void)rec.counter_due(0, 5);

  const TraceRecorder::Snapshot snap = rec.snapshot();
  const auto at_snapshot = rec.events();
  const std::string doc_at_snapshot = chrome_trace_json(rec);

  // Diverge: more events, a drop-inducing overflow, and re-arming state.
  for (uint64_t i = 0; i < 20; ++i) {
    rec.record(ev(EventKind::kIdle, 1, 100 + i, 101 + i));
  }
  rec.disarm();
  EXPECT_GT(rec.dropped(), 0u);

  rec.restore(snap);
  EXPECT_TRUE(rec.armed());
  EXPECT_EQ(rec.dropped(), 0u);
  EXPECT_EQ(rec.counter_period(), 64u);
  EXPECT_EQ(rec.events(), at_snapshot);
  // The export is a pure function of the events, so the documents match
  // byte for byte — the same contract Machine::snapshot/restore leans on.
  EXPECT_EQ(chrome_trace_json(rec), doc_at_snapshot);
  // The sampling throttle was restored: core 0 sampled at t=5, period 64.
  EXPECT_FALSE(rec.counter_due(0, 68));
  EXPECT_TRUE(rec.counter_due(0, 69));
}

TEST(TraceRecorder, RestoreAfterWrapKeepsCompactedOrder) {
  TraceRecorder rec(4);
  for (uint64_t i = 0; i < 6; ++i) {
    rec.record(ev(EventKind::kCompute, 0, i, i));
  }
  const auto snap = rec.snapshot();
  rec.record(ev(EventKind::kCompute, 0, 99, 99));
  rec.restore(snap);
  const auto events = rec.events();
  ASSERT_EQ(events.size(), 4u);
  for (uint64_t i = 0; i < 4; ++i) {
    EXPECT_EQ(events[i].t0, i + 2);
  }
  // The restored ring keeps appending correctly.
  rec.record(ev(EventKind::kCompute, 0, 50, 50));
  EXPECT_EQ(rec.events().back().t0, 50u);
  EXPECT_EQ(rec.dropped(), snap.dropped + 1);
}

TEST(ChromeTrace, DocumentIsValidJsonWithAllTrackKinds) {
  const std::string doc = chrome_trace_json(sample_events(), /*dropped=*/0);
  EXPECT_NO_THROW(fuzz::json_parse(doc, "chrome_trace")) << doc;
  // Track metadata for both cores.
  EXPECT_NE(doc.find("\"name\":\"core 0\""), std::string::npos);
  EXPECT_NE(doc.find("\"name\":\"core 1\""), std::string::npos);
  // Dispatch/park collapsed into a "run" slice; the nested slices survive.
  EXPECT_NE(doc.find("\"name\":\"run\""), std::string::npos);
  EXPECT_NE(doc.find("\"name\":\"load\""), std::string::npos);
  EXPECT_NE(doc.find("\"addr\":\"0x1000\""), std::string::npos);
  // Counter track sample.
  EXPECT_NE(doc.find("\"name\":\"core0/busy\""), std::string::npos);
  EXPECT_NE(doc.find("\"ph\":\"C\""), std::string::npos);
  // NoC delivery slice plus a flow arrow pair ending at the arrival.
  EXPECT_NE(doc.find("\"name\":\"noc_recv\""), std::string::npos);
  EXPECT_NE(doc.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(doc.find("\"ph\":\"f\",\"id\":0,\"bp\":\"e\""), std::string::npos);
  // Core 1 parked never: it still gets a run slice to its last activity.
  EXPECT_NE(doc.find("\"name\":\"lock_acquire\""), std::string::npos);
}

TEST(ChromeTrace, EmptyBufferIsStillAValidDocument) {
  const std::string doc = chrome_trace_json({}, 0);
  EXPECT_NO_THROW(fuzz::json_parse(doc, "chrome_trace")) << doc;
  EXPECT_NE(doc.find("\"traceEvents\""), std::string::npos);
}

TEST(ChromeTrace, SurfacesDroppedCount) {
  const std::string doc = chrome_trace_json(sample_events(), /*dropped=*/17);
  EXPECT_NO_THROW(fuzz::json_parse(doc, "chrome_trace"));
  EXPECT_NE(doc.find("\"dropped_events\":17"), std::string::npos);
}

TEST(ChromeTrace, DeterministicForIdenticalEvents) {
  const auto events = sample_events();
  EXPECT_EQ(chrome_trace_json(events, 2), chrome_trace_json(events, 2));
}

}  // namespace
}  // namespace pmc::obs

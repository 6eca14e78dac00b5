// The trace byte-equality contract (DESIGN.md §11): replaying one
// (target, schedule) pair with a recorder attached produces byte-identical
// Chrome trace documents at every job count, a disarmed recorder is
// observationally invisible, and CheckReport::to_json carries the session
// telemetry as valid JSON.
#include <gtest/gtest.h>

#include <string>

#include "explore/check.h"
#include "explore/litmus_driver.h"
#include "fuzz/json_read.h"
#include "model/litmus_library.h"
#include "obs/trace.h"

namespace pmc::explore {
namespace {

SessionOptions opts_for(int jobs) {
  SessionOptions o;
  o.explore.preemption_bound = 2;
  o.explore.horizon = 24;
  o.jobs = jobs;
  return o;
}

TEST(TraceDeterminism, ByteIdenticalAcrossEngineStatesAndJobs) {
  const LitmusTarget target(model::litmus::fig4_exclusive(),
                            rt::Target::kSWCC);
  // The seeded-bug repro schedule: both overrides bind (writer dispatched
  // first), so this replays a genuinely reordered execution.
  const DecisionString ds = parse_decision_string("0:1,1:1");

  std::string ref_doc;
  uint64_t ref_hash = 0;
  for (const int jobs : {1, 2, 8}) {
    const CheckSession session(opts_for(jobs));
    obs::TraceRecorder rec;
    bool applied = false;
    const RunOutcome out = session.replay(target, ds, &applied, &rec);
    EXPECT_TRUE(out.ok) << out.message;
    EXPECT_TRUE(applied);
    ASSERT_FALSE(rec.empty());
    const std::string doc = obs::chrome_trace_json(rec);
    if (ref_doc.empty()) {
      ref_doc = doc;
      ref_hash = out.trace_hash;
      EXPECT_NO_THROW(fuzz::json_parse(doc, "chrome_trace")) << doc;
    } else {
      EXPECT_EQ(doc, ref_doc) << "jobs=" << jobs << " diverged";
      EXPECT_EQ(out.trace_hash, ref_hash);
    }
  }
}

TEST(TraceDeterminism, DifferentSchedulesProduceDifferentTraces) {
  const LitmusTarget target(model::litmus::fig4_exclusive(),
                            rt::Target::kSWCC);
  const CheckSession session(opts_for(1));
  obs::TraceRecorder default_rec, reordered_rec;
  ASSERT_TRUE(session.replay(target, {}, nullptr, &default_rec).ok);
  ASSERT_TRUE(session
                  .replay(target, parse_decision_string("0:1,1:1"), nullptr,
                          &reordered_rec)
                  .ok);
  EXPECT_NE(obs::chrome_trace_json(default_rec),
            obs::chrome_trace_json(reordered_rec));
}

TEST(TraceDeterminism, AttachedRecorderDoesNotPerturbTheRun) {
  const LitmusTarget target(model::litmus::fig5_mp_annotated(),
                            rt::Target::kSWCC);
  const DecisionString ds = parse_decision_string("0:1");
  const CheckSession session(opts_for(1));
  // The never-attached baseline: the same single stateless run, no
  // recorder.
  const RunOutcome plain = session.replay(target, ds);

  // Disarmed: the run must be bit-for-bit the never-attached one and the
  // recorder must stay empty (the "attached but off" zero-cost state).
  obs::TraceRecorder disarmed;
  disarmed.disarm();
  const RunOutcome off = session.replay(target, ds, nullptr, &disarmed);
  EXPECT_TRUE(disarmed.empty());
  EXPECT_EQ(off.ok, plain.ok);
  EXPECT_EQ(off.trace_hash, plain.trace_hash);
  EXPECT_EQ(off.message, plain.message);

  // Armed: tracing records events but never changes the verdict or the
  // behavior fingerprint — events carry simulated time only.
  obs::TraceRecorder armed;
  const RunOutcome on = session.replay(target, ds, nullptr, &armed);
  EXPECT_FALSE(armed.empty());
  EXPECT_EQ(on.ok, plain.ok);
  EXPECT_EQ(on.trace_hash, plain.trace_hash);
}

TEST(TraceDeterminism, NonStatefulTargetsRunUntraced) {
  const FnTarget target("opaque", [](ReplayPolicy&) {
    RunOutcome out;
    out.trace_hash = 7;
    return out;
  });
  const CheckSession session(opts_for(1));
  obs::TraceRecorder rec;
  const RunOutcome out = session.replay(target, {}, nullptr, &rec);
  EXPECT_TRUE(out.ok);
  EXPECT_EQ(out.trace_hash, 7u);
  EXPECT_TRUE(rec.empty());  // no ProgramOptions to attach through
}

TEST(CheckReportJson, ParsesAndCarriesTelemetry) {
  const LitmusTarget target(model::litmus::fig4_exclusive(),
                            rt::Target::kSWCC);
  const CheckReport rep = CheckSession(opts_for(2)).check(target);
  EXPECT_TRUE(rep.ok) << rep.to_text();

  const std::string json = rep.to_json();
  EXPECT_NO_THROW(fuzz::json_parse(json, "check_report")) << json;
  EXPECT_NE(json.find("\"target\":\"fig4_exclusive@swcc\""),
            std::string::npos);
  EXPECT_NE(json.find("\"explored\":"), std::string::npos);
  EXPECT_NE(json.find("\"schedules_per_sec\":"), std::string::npos);
  EXPECT_NE(json.find("\"hb_curve\":["), std::string::npos);
  // The explorer reports one steal counter per worker.
  EXPECT_EQ(rep.telemetry.worker_steals.size(), 2u);
  EXPECT_FALSE(rep.telemetry.hb_curve.empty());
  EXPECT_GT(rep.telemetry.explore_seconds, 0);

  // The canonical text rendering excludes telemetry entirely: it is the
  // engine-invariant document, and wall-clock numbers would break that.
  EXPECT_EQ(rep.to_text().find("schedules_per_sec"), std::string::npos);
}

TEST(CheckReportJson, FailingReportCarriesSchedules) {
  const LitmusTarget target = seeded_bug_check(rt::Target::kSWCC);
  SessionOptions o = opts_for(1);
  const CheckReport rep = CheckSession(o).check(target);
  ASSERT_GT(rep.failing, 0u);
  const std::string json = rep.to_json();
  EXPECT_NO_THROW(fuzz::json_parse(json, "check_report")) << json;
  EXPECT_NE(json.find("\"first_failing\":"), std::string::npos);
  EXPECT_NE(json.find("\"repro_schedule\":"), std::string::npos);
  EXPECT_NE(json.find("\"failing\":"), std::string::npos);
}

}  // namespace
}  // namespace pmc::explore

// The snapshot engine's exact-trace judge memo (DESIGN.md §10). Each
// StatefulExecutor judges a distinct trace once and reuses the verdict and
// the hb hash for every later run with the same trace; the claim is that
// this is observationally invisible. These suites check it run by run: a
// decorating judge compares what the memoized Program reports with a fresh
// TraceValidator and hb_trace_hash on the run's own trace, over the litmus
// grid on every back-end, generated fuzz programs, and a seeded fault whose
// failing verdicts the memo must serve too. At jobs = 1 the memo counters
// must also account for every explored schedule, with one miss per distinct
// exact trace.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "explore/check.h"
#include "explore/litmus_driver.h"
#include "explore/program_gen.h"
#include "model/litmus_library.h"
#include "model/trace.h"
#include "runtime/program.h"

namespace pmc::explore {
namespace {

using Trace = std::vector<model::TraceEvent>;

struct TraceLess {
  bool operator()(const Trace& a, const Trace& b) const {
    return std::lexicographical_compare(
        a.begin(), a.end(), b.begin(), b.end(),
        [](const model::TraceEvent& x, const model::TraceEvent& y) {
          return std::tie(x.kind, x.proc, x.loc, x.value) <
                 std::tie(y.kind, y.proc, y.loc, y.value);
        });
  }
};

/// What the decorating judge saw over one exploration (jobs = 1, so one
/// thread writes it).
struct Seen {
  uint64_t judged = 0;
  uint64_t judged_failing = 0;
  std::set<Trace, TraceLess> traces;
  std::set<Trace, TraceLess> failing_traces;
};

/// Decorates a target's judge with the memo's reference: before the inner
/// judge folds its results on, the preset trace hash must be the run's
/// hb_trace_hash, and the Program's verdict — and its validator(), rebuilt
/// on request after a hit — must be a fresh validation of the same trace.
class MemoCheck final : public CheckTarget {
 public:
  MemoCheck(const CheckTarget& inner, Seen* seen)
      : inner_(inner), seen_(seen) {}

  std::string name() const override { return inner_.name(); }

  StatefulSpec make_spec() const override {
    StatefulSpec spec = inner_.make_spec();
    spec.judge = [seen = seen_, judge = std::move(spec.judge)](
                     rt::Program& prog, RunOutcome& out) {
      const Trace& trace = prog.trace();
      EXPECT_EQ(out.trace_hash, hb_trace_hash(trace));
      const model::TraceVerdict* v = prog.verdict();
      const model::TraceValidator* graph = prog.validator();
      if (v != nullptr && graph != nullptr) {
        const model::Execution& ex = graph->execution();
        model::TraceValidator fresh(
            ex.num_procs(), ex.num_locs(),
            std::vector<uint64_t>(static_cast<size_t>(ex.num_locs()), 0));
        fresh.on_events(trace);
        EXPECT_EQ(v->ok, fresh.ok());
        EXPECT_EQ(v->saturated, fresh.saturated());
        EXPECT_EQ(v->num_events, fresh.num_events());
        EXPECT_EQ(v->first_violation, fresh.first_violation());
        EXPECT_EQ(graph->first_violation(), fresh.first_violation());
        EXPECT_EQ(graph->num_events(), fresh.num_events());
        if (!v->ok) {
          ++seen->judged_failing;
          seen->failing_traces.insert(trace);
        }
      } else {
        ADD_FAILURE() << "a validated run reported no verdict or validator";
      }
      ++seen->judged;
      seen->traces.insert(trace);
      judge(prog, out);
    };
    return spec;
  }

 private:
  const CheckTarget& inner_;
  Seen* seen_;
};

SessionOptions opts_for(uint64_t horizon, int preemptions) {
  SessionOptions opts;
  opts.explore.preemption_bound = preemptions;
  opts.explore.horizon = horizon;
  return opts;  // jobs 1
}

/// Explores `target` under the decorator and checks the jobs = 1 memo
/// accounting: one lookup per explored schedule, one miss per distinct
/// exact trace.
Seen explore_checked(const CheckTarget& target, const SessionOptions& opts,
                     ExploreReport* out = nullptr) {
  Seen seen;
  const ExploreReport rep =
      CheckSession(opts).explore(MemoCheck(target, &seen));
  EXPECT_EQ(seen.judged, rep.explored) << target.name();
  EXPECT_EQ(rep.judge_memo_hits + rep.judge_memo_misses, rep.explored)
      << target.name();
  EXPECT_EQ(rep.judge_memo_misses, seen.traces.size()) << target.name();
  if (out != nullptr) *out = rep;
  return seen;
}

class JudgeMemoLitmus : public ::testing::TestWithParam<rt::Target> {};

TEST_P(JudgeMemoLitmus, EveryScheduleMatchesAFreshJudgement) {
  uint64_t hits = 0;
  for (const auto& test : annotatable_tests()) {
    ExploreReport rep;
    explore_checked(LitmusTarget(test, GetParam()), opts_for(16, 2), &rep);
    hits += rep.judge_memo_hits;
  }
  EXPECT_GT(hits, 0u) << "the grid never revisited a trace";
}

INSTANTIATE_TEST_SUITE_P(SimTargets, JudgeMemoLitmus,
                         ::testing::ValuesIn(rt::sim_targets()),
                         [](const auto& info) {
                           return std::string(rt::to_string(info.param));
                         });

TEST(JudgeMemo, FuzzProgramsMatchAFreshJudgement) {
  for (const uint64_t seed : {1u, 2u, 5u}) {
    const GenProgram prog = generate_program(shape_for_seed(seed));
    for (const rt::Target t : rt::sim_targets()) {
      explore_checked(GenProgramTarget(prog, t), opts_for(10, 1));
    }
  }
}

TEST(JudgeMemo, ServesFailingVerdictsOfASeededFault) {
  ExploreReport rep;
  const Seen seen = explore_checked(seeded_bug_check(rt::Target::kSWCC),
                                    opts_for(16, 2), &rep);
  ASSERT_GT(rep.failing, 0u);
  ASSERT_FALSE(seen.failing_traces.empty());
  // More failing judgements than failing traces: some failing verdict came
  // from the memo.
  EXPECT_GT(seen.judged_failing, seen.failing_traces.size());
}

TEST(JudgeMemo, TelemetryCarriesTheCountersOutsideTheText) {
  const LitmusTarget target(model::litmus::fig5_mp_annotated(),
                            rt::Target::kSWCC);
  const CheckReport rep = CheckSession(opts_for(12, 2)).check(target);
  EXPECT_EQ(rep.telemetry.judge_memo_hits + rep.telemetry.judge_memo_misses,
            rep.explored);
  EXPECT_GT(rep.telemetry.judge_memo_hits, 0u);
  EXPECT_NE(rep.to_json().find("\"judge_memo_misses\""), std::string::npos);
  EXPECT_EQ(rep.to_text().find("memo"), std::string::npos);
}

TEST(JudgeMemo, ProgramHitKeepsTheValidatorContract) {
  // Two Programs sharing one memo run the same deterministic schedule: the
  // second validation is a hit that builds no graph until asked for one.
  const LitmusTarget target(model::litmus::fig5_mp_annotated(),
                            rt::Target::kSWCC);
  const StatefulSpec spec = target.make_spec();
  rt::TraceMemo memo;
  model::TraceVerdict first;
  for (int i = 0; i < 2; ++i) {
    rt::Program prog(spec.opts);
    prog.set_trace_memo(&memo);
    spec.setup(prog);
    prog.run(spec.body);
    ASSERT_NE(prog.verdict(), nullptr);
    ASSERT_NE(prog.memo_entry(), nullptr);
    EXPECT_TRUE(prog.verdict()->ok);
    EXPECT_NO_THROW(prog.require_valid());
    if (i == 0) {
      first = *prog.verdict();
      continue;
    }
    EXPECT_EQ(memo.hits(), 1u);
    EXPECT_EQ(memo.misses(), 1u);
    EXPECT_EQ(prog.verdict()->num_events, first.num_events);
    const model::TraceValidator* v = prog.validator();
    ASSERT_NE(v, nullptr);
    EXPECT_TRUE(v->ok());
    EXPECT_EQ(v->num_events(), first.num_events);
  }
}

}  // namespace
}  // namespace pmc::explore

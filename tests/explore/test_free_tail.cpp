// Free-running tails (DESIGN.md §6) against full consult. Past a
// ReplayPolicy's free step the scheduler stops calling the policy and the
// checkpoint hook, takes the min-time pick, and, once the frontier warp is
// spent, defers handoffs and sleeps through polls. Every test here runs
// the same schedules a second way, through a decorator that forwards each
// decision to the ReplayPolicy but declares no free step, so the scheduler
// consults it to the end of the run as it did before the tail existed.
// Reports, hb-class sets, per-schedule decision counts, per-core counters,
// machine state and model traces must all agree.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "explore/check.h"
#include "explore/explorer.h"
#include "explore/litmus_driver.h"
#include "explore/replay_policy.h"
#include "explore/stateful.h"
#include "runtime/program.h"
#include "sim/machine.h"

namespace pmc::explore {
namespace {

constexpr int kBound = 2;
constexpr uint64_t kHorizon = 16;

/// Forwards every decision to `inner` but keeps the default free step, so
/// the scheduler consults it at every decision point of the run. It also
/// tracks the frontier from the candidates it sees, which tells how many
/// runnable cores trail the frontier at a given step.
class FullConsult final : public sim::SchedulePolicy {
 public:
  explicit FullConsult(ReplayPolicy& inner) : inner_(inner) {}

  int pick(const sim::YieldPoint& yp,
           const std::vector<sim::ScheduleCandidate>& cands) override {
    int trailing = 0;
    for (const sim::ScheduleCandidate& c : cands) {
      trailing += c.time < frontier_;
    }
    trailing_.push_back(trailing);
    const int choice = inner_.pick(yp, cands);
    frontier_ = std::max(frontier_, cands[static_cast<size_t>(choice)].time);
    return choice;
  }
  void on_run_end(uint64_t decisions) override { inner_.on_run_end(decisions); }

  /// Runnable cores behind the frontier at decision `step`.
  int trailing_at(uint64_t step) const {
    return step < trailing_.size() ? trailing_[step] : 0;
  }

 private:
  ReplayPolicy& inner_;
  uint64_t frontier_ = 0;
  std::vector<int> trailing_;
};

/// decision_points() of every schedule one exploration ran, by its string.
struct PointsLog {
  std::mutex mu;
  std::map<std::string, uint64_t> points;
  void add(const ReplayPolicy& p) {
    std::lock_guard<std::mutex> lk(mu);
    points[to_string(p.overrides())] = p.decision_points();
  }
};

/// Runs `spec` once on a fresh Program under `policy`, like run_spec_once.
RunOutcome run_fresh(const StatefulSpec& spec, sim::SchedulePolicy& policy) {
  RunOutcome out;
  try {
    rt::ProgramOptions opts = spec.opts;
    opts.schedule_policy = &policy;
    rt::Program prog(opts);
    spec.setup(prog);
    prog.run(spec.body);
    judge_run(spec, prog, out);
  } catch (const std::exception& e) {
    out.ok = false;
    out.message = e.what();
  }
  return out;
}

/// The stateless path with the free tail: run_spec_once, no checkpoint
/// hook (the ReplayReference path), logging each schedule's count.
class FreeStateless final : public CheckTarget {
 public:
  FreeStateless(const CheckTarget& inner, PointsLog* log)
      : inner_(inner), log_(log) {}
  std::string name() const override { return inner_.name(); }
  RunOutcome run(ReplayPolicy& policy) const override {
    const RunOutcome out = run_spec_once(inner_.make_spec(), policy);
    log_->add(policy);
    return out;
  }
  bool stateful_capable() const override { return false; }
  StatefulSpec make_spec() const override { return inner_.make_spec(); }

 private:
  const CheckTarget& inner_;
  PointsLog* log_;
};

/// The stateless path with the policy consulted at every decision point.
class FullConsultTarget final : public CheckTarget {
 public:
  FullConsultTarget(const CheckTarget& inner, PointsLog* log)
      : inner_(inner), log_(log) {}
  std::string name() const override { return inner_.name(); }
  RunOutcome run(ReplayPolicy& policy) const override {
    FullConsult full(policy);
    const RunOutcome out = run_fresh(inner_.make_spec(), full);
    log_->add(policy);
    return out;
  }
  bool stateful_capable() const override { return false; }
  StatefulSpec make_spec() const override { return inner_.make_spec(); }

 private:
  const CheckTarget& inner_;
  PointsLog* log_;
};

/// The snapshot engine's exploration of `target`, logging every schedule.
ExploreReport explore_stateful(const CheckTarget& target,
                               const ExploreConfig& cfg, PointsLog* log) {
  StatefulOptions sopts;
  sopts.horizon = cfg.horizon;
  Explorer ex(
      [&target, sopts, log]() {
        auto e = std::make_shared<StatefulExecutor>(target.make_spec(), sopts);
        return ScheduleRunner([e, log](ReplayPolicy& p) {
          const RunOutcome out = e->run(p);
          log->add(p);
          return out;
        });
      },
      1);
  return ex.explore(cfg);
}

ExploreConfig config() {
  ExploreConfig cfg;
  cfg.preemption_bound = kBound;
  cfg.horizon = kHorizon;
  return cfg;
}

class FreeTail : public ::testing::TestWithParam<rt::Target> {};

TEST_P(FreeTail, ReportsAndDecisionCountsMatchFullConsult) {
  const CheckSession session(config());
  for (const model::LitmusTest& test : annotatable_tests()) {
    SCOPED_TRACE(test.name);
    const LitmusTarget bare(test, GetParam());
    PointsLog free_log, full_log, stateful_log;
    const CheckReport free_rep = session.check(bare);
    const CheckReport ref_rep = session.check(FreeStateless(bare, &free_log));
    const CheckReport full_rep =
        session.check(FullConsultTarget(bare, &full_log));
    EXPECT_EQ(free_rep.to_text(), full_rep.to_text());
    EXPECT_EQ(ref_rep.to_text(), full_rep.to_text());
    EXPECT_EQ(free_rep.trace_hashes, full_rep.trace_hashes);
    EXPECT_EQ(ref_rep.trace_hashes, full_rep.trace_hashes);
    EXPECT_EQ(free_log.points, full_log.points);

    const ExploreReport stateful =
        explore_stateful(bare, config(), &stateful_log);
    EXPECT_EQ(stateful.max_decision_points, full_rep.max_decision_points);
    EXPECT_EQ(stateful_log.points, full_log.points);
    ASSERT_FALSE(full_log.points.empty());
    // The tail is real: runs go well past the horizon.
    EXPECT_GT(full_rep.max_decision_points, kHorizon + 1);
  }
}

class FreeTailSeeded : public ::testing::TestWithParam<rt::Target> {};

TEST_P(FreeTailSeeded, FaultsFailTheSameSchedules) {
  const LitmusTarget bare = seeded_bug_check(GetParam());
  const CheckSession session(config());
  PointsLog full_log;
  const ExploreReport free_rep = session.explore(bare);
  const ExploreReport full_rep =
      session.explore(FullConsultTarget(bare, &full_log));
  EXPECT_EQ(free_rep.explored, full_rep.explored);
  EXPECT_EQ(free_rep.failing, full_rep.failing);
  EXPECT_EQ(free_rep.failing_schedules, full_rep.failing_schedules);
  EXPECT_EQ(free_rep.first_failing_message, full_rep.first_failing_message);
  EXPECT_EQ(free_rep.max_decision_points, full_rep.max_decision_points);
  EXPECT_EQ(free_rep.trace_hashes, full_rep.trace_hashes);
  EXPECT_GT(full_rep.failing, 0u);
}

/// What one run leaves behind, for field-by-field comparison.
struct RunState {
  std::vector<sim::CoreStats> stats;
  uint64_t state_hash = 0;
  std::vector<model::TraceEvent> trace;
  uint64_t decision_points = 0;
  uint64_t handoffs = 0;
  uint64_t polls_slept = 0;
  std::string error;
};

RunState run_state(const StatefulSpec& spec, ReplayPolicy& policy,
                   sim::SchedulePolicy& installed) {
  RunState r;
  rt::ProgramOptions opts = spec.opts;
  opts.schedule_policy = &installed;
  rt::Program prog(opts);
  spec.setup(prog);
  try {
    prog.run(spec.body);
  } catch (const std::exception& e) {
    r.error = e.what();
  }
  sim::Machine& m = *prog.machine();
  for (int c = 0; c < m.num_cores(); ++c) r.stats.push_back(m.stats(c));
  r.state_hash = m.state_hash();
  r.trace = prog.trace();
  r.decision_points = policy.decision_points();
  r.handoffs = m.handoffs();
  r.polls_slept = m.polls_slept();
  return r;
}

bool same_events(const std::vector<model::TraceEvent>& a,
                 const std::vector<model::TraceEvent>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const model::TraceEvent& x, const model::TraceEvent& y) {
                      return x.kind == y.kind && x.proc == y.proc &&
                             x.loc == y.loc && x.value == y.value;
                    });
}

TEST_P(FreeTail, SampledSchedulesLeaveIdenticalMachines) {
  // Per test: the default schedule, each single preemption at a contended
  // step, and the same preemptions taking the last candidate with the
  // horizon set to the override's own step. Those free right after it, so
  // the bypassed cores still trail the frontier at the free point and the
  // tail must warp them before it may free-run.
  uint64_t pending_warps = 0, multi_trailing = 0;
  uint64_t free_handoffs = 0, full_handoffs = 0, free_slept = 0;
  for (const model::LitmusTest& test : annotatable_tests()) {
    const LitmusTarget target(test, GetParam());
    const StatefulSpec spec = target.make_spec();
    ReplayPolicy probe({}, kHorizon);
    run_fresh(spec, probe);
    struct Sample {
      DecisionString ds;
      uint64_t horizon;
    };
    std::vector<Sample> samples = {{{}, kHorizon}};
    for (uint64_t p = 0; p < kHorizon; ++p) {
      const int cands = probe.candidates_at(p);
      if (cands < 2) continue;
      samples.push_back({{{p, 1}}, kHorizon});
      samples.push_back({{{p, cands - 1}}, p});
    }
    for (const Sample& s : samples) {
      SCOPED_TRACE(test.name + " \"" + to_string(s.ds) + "\" horizon " +
                   std::to_string(s.horizon));
      ReplayPolicy free_policy(s.ds, s.horizon);
      ReplayPolicy full_policy(s.ds, s.horizon);
      FullConsult full(full_policy);
      const RunState a = run_state(spec, free_policy, free_policy);
      const RunState b = run_state(spec, full_policy, full);
      EXPECT_EQ(a.error, b.error);
      EXPECT_EQ(a.decision_points, b.decision_points);
      EXPECT_EQ(a.state_hash, b.state_hash);
      EXPECT_TRUE(same_events(a.trace, b.trace));
      ASSERT_EQ(a.stats.size(), b.stats.size());
      for (size_t c = 0; c < a.stats.size(); ++c) {
        EXPECT_EQ(std::memcmp(&a.stats[c], &b.stats[c], sizeof(sim::CoreStats)),
                  0)
            << "core " << c;
      }
      EXPECT_EQ(b.polls_slept, 0u);
      free_handoffs += a.handoffs;
      free_slept += a.polls_slept;
      full_handoffs += b.handoffs;
      const int trailing = full.trailing_at(free_policy.free_step());
      if (!s.ds.empty() && s.horizon == s.ds.back().step) {
        pending_warps += trailing > 0;
        multi_trailing += trailing > 1;
      }
    }
  }
  // The samples reach the cases the tail must get right, and it free-runs:
  // it defers handoffs and sleeps through polls.
  EXPECT_GT(pending_warps, 0u);
  EXPECT_GT(multi_trailing, 0u);
  EXPECT_LT(free_handoffs, full_handoffs);
  EXPECT_GT(free_slept, 0u);
}

std::string target_name(const ::testing::TestParamInfo<rt::Target>& info) {
  return rt::to_string(info.param);
}

std::vector<rt::Target> faultable_targets() {
  std::vector<rt::Target> out;
  for (const rt::Target t : rt::sim_targets()) {
    if (has_seeded_fault(t)) out.push_back(t);
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(SimTargets, FreeTail,
                         ::testing::ValuesIn(rt::sim_targets()), target_name);
INSTANTIATE_TEST_SUITE_P(SimTargets, FreeTailSeeded,
                         ::testing::ValuesIn(faultable_targets()),
                         target_name);

}  // namespace
}  // namespace pmc::explore

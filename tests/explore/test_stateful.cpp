// Stateful exploration (DESIGN.md §10). The snapshot engine's whole claim
// is observational equivalence: forking schedules from machine snapshots
// must produce byte-identical CheckReports to full stateless replay (the
// ReplayReference decorator), over every target family, job count, and
// fault seed. These suites pin that claim (the differential
// grid), the snapshot/restore round-trip properties underneath it, the
// bounded-pool fallback, and the ReplayPolicy recording contract that keeps
// scheduler state outside the machine from tearing on restore.
#include "explore/stateful.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <random>
#include <string>

#include "explore/check.h"
#include "explore/litmus_driver.h"
#include "explore/program_gen.h"
#include "model/litmus_library.h"
#include "sim/machine.h"
#include "sim/scheduler.h"
#include "util/check.h"
#include "../support/replay_reference.h"

namespace pmc::explore {
namespace {

using test_support::ReplayReference;

SessionOptions grid_opts(int jobs = 1, uint64_t horizon = 12,
                         int preemptions = 2) {
  SessionOptions opts;
  opts.explore.preemption_bound = preemptions;
  opts.explore.horizon = horizon;
  opts.jobs = jobs;
  return opts;
}

std::string check_text(const CheckTarget& target, const SessionOptions& opts) {
  return CheckSession(opts).check(target).to_text();
}

/// The stateless-replay report of `target`: the byte-equality reference.
std::string replay_text(const CheckTarget& target,
                        const SessionOptions& opts) {
  return check_text(ReplayReference(target), opts);
}

// -- The differential grid: snapshot must match replay byte-for-byte ---------

class LitmusDifferential : public ::testing::TestWithParam<rt::Target> {};

TEST_P(LitmusDifferential, EveryAnnotatableTestMatchesReplay) {
  // The CLI's default litmus grid bounds (preemptions 2, horizon 16), with
  // the tree sharded over 1 and 4 workers: the report, explored
  // count included, must not depend on the job count.
  for (const auto& test : annotatable_tests()) {
    const LitmusTarget target(test, GetParam());
    const std::string ref = replay_text(target, grid_opts(1, 16));
    for (const int jobs : {1, 4}) {
      EXPECT_EQ(check_text(target, grid_opts(jobs, 16)), ref)
          << target.name() << " jobs=" << jobs;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(SimTargets, LitmusDifferential,
                         ::testing::ValuesIn(rt::sim_targets()),
                         [](const auto& info) {
                           return std::string(rt::to_string(info.param));
                         });

TEST(StatefulDifferential, JobCountsMatchReplay) {
  const LitmusTarget mp(model::litmus::fig5_mp_annotated(), rt::Target::kSWCC);
  const LitmusTarget ex(model::litmus::fig4_exclusive(), rt::Target::kDSM);
  for (const CheckTarget* target : {
           static_cast<const CheckTarget*>(&mp),
           static_cast<const CheckTarget*>(&ex),
       }) {
    const std::string ref = replay_text(*target, grid_opts());
    for (const int jobs : {1, 2, 8}) {
      EXPECT_EQ(check_text(*target, grid_opts(jobs)), ref)
          << target->name() << " jobs=" << jobs;
    }
  }
}

TEST(StatefulDifferential, AppTargetsMatchReplayOnEveryBackend) {
  // App bounds: kernels take more decisions per schedule than a litmus
  // test, so trade horizon for per-schedule depth (same as the CLI).
  for (const rt::Target t : rt::sim_targets()) {
    for (const AppKind kind : all_app_kinds()) {
      const auto target = make_app_target(kind, t);
      const SessionOptions opts = grid_opts(1, 14, 1);
      EXPECT_EQ(check_text(*target, opts), replay_text(*target, opts))
          << target->name();
    }
  }
}

TEST(StatefulDifferential, FuzzProgramsMatchReplay) {
  for (const uint64_t seed : {1u, 2u, 5u}) {
    const GenProgram prog = generate_program(shape_for_seed(seed));
    for (const rt::Target t : {rt::Target::kNoCC, rt::Target::kSWCC}) {
      const GenProgramTarget target(prog, t);
      const SessionOptions opts = grid_opts(1, 10, 1);
      EXPECT_EQ(check_text(target, opts), replay_text(target, opts))
          << target.name();
    }
  }
}

TEST(StatefulDifferential, SeededFaultReportsMatchReplayIncludingMinimization) {
  // Failing targets exercise the rest of the pipeline — canonicalization,
  // minimization, replay confirmation — so byte-equality here covers the
  // minimized schedule/message set, not just the totals.
  const LitmusTarget litmus = seeded_bug_check(rt::Target::kSWCC);
  const std::string litmus_ref = replay_text(litmus, grid_opts(1, 16));
  ASSERT_NE(litmus_ref.find("failing"), std::string::npos);
  for (const int jobs : {1, 2}) {
    EXPECT_EQ(check_text(litmus, grid_opts(jobs, 16)), litmus_ref)
        << "jobs=" << jobs;
  }

  for (const AppKind kind : all_app_kinds()) {
    const auto target =
        make_app_target(kind, rt::Target::kSWCC, all_seeded_faults());
    const CheckReport ref =
        CheckSession(grid_opts(1, 14, 1)).check(ReplayReference(*target));
    ASSERT_GT(ref.failing, 0u) << target->name();
    for (const int jobs : {1, 2}) {
      EXPECT_EQ(check_text(*target, grid_opts(jobs, 14, 1)), ref.to_text())
          << target->name() << " jobs=" << jobs;
    }
  }
}

// -- Bounded pool: eviction pressure only costs time, never changes reports --

TEST(SnapshotPool, RootOnlyPoolStillMatchesReplay) {
  // A failing target, so the least failing schedule is compared too.
  const LitmusTarget target = seeded_bug_check(rt::Target::kSWCC);
  ExploreConfig cfg;
  cfg.preemption_bound = 2;
  cfg.horizon = 16;
  const ExploreReport ref = CheckSession(cfg).explore(ReplayReference(target));
  ASSERT_GT(ref.failing, 0u);
  for (const size_t pool : {size_t{0}, size_t{2}}) {
    StatefulOptions sopts;
    sopts.horizon = cfg.horizon;
    sopts.checkpoint_stride = 4;
    sopts.pool_capacity = pool;
    StatefulExecutor exec(target.make_spec(), sopts);
    const ExploreReport rep = Explorer(exec.runner()).explore(cfg);
    EXPECT_EQ(rep.explored, ref.explored) << "pool=" << pool;
    EXPECT_EQ(rep.failing, ref.failing) << "pool=" << pool;
    EXPECT_EQ(to_string(rep.first_failing), to_string(ref.first_failing))
        << "pool=" << pool;
    EXPECT_EQ(rep.trace_hashes, ref.trace_hashes) << "pool=" << pool;
  }
}

TEST(SnapshotPool, CapacityZeroFallsBackToRootRestores) {
  const LitmusTarget target(model::litmus::fig5_mp_annotated(),
                            rt::Target::kSWCC);
  StatefulOptions sopts;
  sopts.horizon = 12;
  sopts.checkpoint_stride = 4;
  sopts.pool_capacity = 0;
  StatefulExecutor exec(target.make_spec(), sopts);
  ExploreConfig cfg;
  cfg.horizon = 12;
  const ExploreReport rep = Explorer(exec.runner()).explore(cfg);
  EXPECT_EQ(rep.failing, 0u);
  // Every non-first schedule restarted from the pinned root: no mid-run
  // forks survived eviction, yet exploration still completed identically.
  EXPECT_EQ(exec.stats().pool_hits, 0u);
  EXPECT_EQ(exec.stats().pool_misses, rep.explored - 1);
  EXPECT_GE(exec.stats().snapshots_taken, 1u);

  const ExploreReport ref = Explorer(target.runner()).explore(cfg);
  EXPECT_EQ(rep.explored, ref.explored);
  EXPECT_EQ(rep.distinct_traces, ref.distinct_traces);
}

TEST(SnapshotPool, DefaultPoolForksMostSchedulesMidRun) {
  const LitmusTarget target(model::litmus::fig5_mp_annotated(),
                            rt::Target::kSWCC);
  StatefulExecutor exec(target.make_spec(), StatefulOptions{});
  ExploreConfig cfg;
  cfg.horizon = 24;
  const ExploreReport rep = Explorer(exec.runner()).explore(cfg);
  EXPECT_EQ(rep.failing, 0u);
  EXPECT_GT(exec.stats().pool_hits, exec.stats().pool_misses);
}

TEST(SnapshotPool, EntryUnderALongerPrefixIsNotForked) {
  // Explorer::minimize keeps worker 0's runner, and its pool, across rounds,
  // so a later round can run {a} after an earlier one captured entries under
  // {a, b}. An entry parked past b is a state of {a, b}'s execution, not of
  // {a}'s: its captured prefix must match the overrides in full.
  const LitmusTarget target = seeded_bug_check(rt::Target::kSWCC);
  const ReplayReference reference(target);
  constexpr uint64_t kHorizon = 24;
  const auto replay = [&](const DecisionString& ds) {
    ReplayPolicy p(ds, kHorizon);
    const RunOutcome out = reference.run(p);
    return std::make_pair(out, std::move(p));
  };
  // The first branches a, then b after it, such that overriding b as well
  // changes what {a} observes.
  std::optional<Decision> a, b;
  RunOutcome only_a;
  const ReplayPolicy plain = replay({}).second;
  for (uint64_t pa = 0; pa < kHorizon && !b; ++pa) {
    if (plain.candidates_at(pa) < 2) continue;
    a = Decision{pa, 1};
    const auto [out_a, policy_a] = replay({*a});
    only_a = out_a;
    for (uint64_t pb = pa + 1; pb < kHorizon && !b; ++pb) {
      if (policy_a.candidates_at(pb) > 1 &&
          replay({*a, {pb, 1}}).first.trace_hash != only_a.trace_hash) {
        b = Decision{pb, 1};
      }
    }
  }
  ASSERT_TRUE(b.has_value()) << "no pair of branches changes the trace";

  StatefulOptions sopts;
  sopts.horizon = kHorizon;
  sopts.checkpoint_stride = 1;
  StatefulExecutor exec(target.make_spec(), sopts);
  ReplayPolicy longer({*a, *b}, kHorizon);
  exec.run(longer);
  ReplayPolicy shorter({*a}, kHorizon);
  const RunOutcome got = exec.run(shorter);
  EXPECT_EQ(got.ok, only_a.ok);
  EXPECT_EQ(got.message, only_a.message);
  EXPECT_EQ(got.trace_hash, only_a.trace_hash);
}

// -- The pool index against a linear scan -------------------------------------

// The pool as a flat list that every lookup scans: the reference the
// executor's (prefix, step) index and LRU list must agree with. It keeps
// only the keys, and runs each schedule on a fresh Program whose scheduler
// offers it the same checkpoints the executor is offered past its fork.
class LinearPool final : public sim::CheckpointHook {
 public:
  LinearPool(StatefulSpec spec, StatefulOptions opts)
      : spec_(std::move(spec)), opts_(opts) {}

  void run(const DecisionString& overrides) {
    overrides_ = &overrides;
    fork_step_.reset();
    if (!pool_.empty()) {
      Entry* best = nullptr;
      for (Entry& e : pool_) {
        if (best != nullptr && e.step <= best->step) continue;
        if (usable(e)) best = &e;
      }
      ASSERT_NE(best, nullptr);
      ++(best->step == 0 ? stats_.pool_misses : stats_.pool_hits);
      best->lru = ++clock_;
      fork_step_ = best->step;
    }
    ReplayPolicy policy(overrides, opts_.horizon);
    rt::ProgramOptions po = spec_.opts;
    po.schedule_policy = &policy;
    rt::Program prog(po);
    prog.set_checkpoint_hook(this);
    spec_.setup(prog);
    prog.run(spec_.body);
  }

  bool wants_checkpoint(uint64_t step, int runnable_cores) override {
    // A forked run resumes past its fork step and is offered nothing below.
    if (fork_step_.has_value() && step <= *fork_step_) return false;
    if (step == 0) return !have_entry_at(0);
    if (runnable_cores < 2 || step >= opts_.horizon ||
        step % opts_.checkpoint_stride != 0) {
      return false;
    }
    return !have_entry_at(step);
  }

  void on_checkpoint(uint64_t step) override {
    Entry e{step, {}, ++clock_};
    for (const Decision& d : *overrides_) {
      if (d.step >= step) break;
      e.prefix.push_back(d);
    }
    pool_.push_back(std::move(e));
    ++stats_.snapshots_taken;
    size_t live = 0;
    for (const Entry& x : pool_) live += x.step != 0 ? 1 : 0;
    while (live > opts_.pool_capacity) {
      size_t victim = pool_.size();
      for (size_t i = 0; i < pool_.size(); ++i) {
        if (pool_[i].step == 0) continue;
        if (victim == pool_.size() || pool_[i].lru < pool_[victim].lru) {
          victim = i;
        }
      }
      pool_.erase(pool_.begin() + static_cast<ptrdiff_t>(victim));
      --live;
    }
  }

  /// Non-root keys, least recently used first.
  std::vector<StatefulExecutor::PoolKey> keys() const {
    std::vector<const Entry*> live;
    for (const Entry& e : pool_) {
      if (e.step != 0) live.push_back(&e);
    }
    std::sort(live.begin(), live.end(),
              [](const Entry* a, const Entry* b) { return a->lru < b->lru; });
    std::vector<StatefulExecutor::PoolKey> out;
    for (const Entry* e : live) out.push_back({e->step, e->prefix});
    return out;
  }
  std::optional<uint64_t> fork_step() const { return fork_step_; }
  const StatefulStats& stats() const { return stats_; }

 private:
  struct Entry {
    uint64_t step = 0;
    DecisionString prefix;
    uint64_t lru = 0;
  };

  bool usable(const Entry& e) const {
    size_t i = 0;
    for (const Decision& d : *overrides_) {
      if (d.step >= e.step) break;
      if (i >= e.prefix.size() || !(e.prefix[i] == d)) return false;
      ++i;
    }
    return i == e.prefix.size();
  }
  bool have_entry_at(uint64_t step) {
    for (Entry& e : pool_) {
      if (e.step == step && usable(e)) {
        e.lru = ++clock_;
        return true;
      }
    }
    return false;
  }

  StatefulSpec spec_;
  StatefulOptions opts_;
  std::vector<Entry> pool_;
  const DecisionString* overrides_ = nullptr;
  std::optional<uint64_t> fork_step_;
  uint64_t clock_ = 0;
  StatefulStats stats_;
};

std::string key_text(const std::vector<StatefulExecutor::PoolKey>& keys) {
  std::string out;
  for (const auto& k : keys) {
    out += std::to_string(k.step) + "[" + to_string(k.prefix) + "] ";
  }
  return out;
}

TEST(SnapshotPool, IndexMatchesLinearScan) {
  // A seeded shuffle of a whole schedule space, so consecutive schedules
  // share arbitrary prefixes (not the DFS order's), with a tail of repeats.
  const LitmusTarget targets[] = {
      {model::litmus::fig5_mp_annotated(), rt::Target::kSWCC},
      {model::litmus::wrc_locked(), rt::Target::kDSM},
  };
  constexpr uint64_t kHorizon = 16;
  for (const LitmusTarget& target : targets) {
    std::vector<DecisionString> space;
    ExploreConfig cfg;
    cfg.preemption_bound = 2;
    cfg.horizon = kHorizon;
    Explorer([&](ReplayPolicy& p) {
      space.push_back(p.overrides());
      return target.run(p);
    }).explore(cfg);
    std::mt19937_64 rng(7);
    std::shuffle(space.begin(), space.end(), rng);
    space.resize(std::min<size_t>(space.size(), 150));
    const size_t distinct = space.size();
    for (size_t i = 0; i < 50; ++i) {
      const DecisionString repeat = space[rng() % distinct];
      space.push_back(repeat);
    }

    for (const size_t capacity : {size_t{0}, size_t{2}, size_t{128}}) {
      for (const uint64_t stride : {uint64_t{1}, uint64_t{8}}) {
        StatefulOptions sopts;
        sopts.horizon = kHorizon;
        sopts.checkpoint_stride = stride;
        sopts.pool_capacity = capacity;
        StatefulExecutor exec(target.make_spec(), sopts);
        LinearPool ref(target.make_spec(), sopts);
        for (size_t i = 0; i < space.size(); ++i) {
          const std::string where = target.name() + " capacity=" +
                                    std::to_string(capacity) + " stride=" +
                                    std::to_string(stride) + " run " +
                                    std::to_string(i) + " \"" +
                                    to_string(space[i]) + "\"";
          ReplayPolicy policy(space[i], kHorizon);
          ASSERT_TRUE(exec.run(policy).ok) << where;
          ref.run(space[i]);
          ASSERT_EQ(exec.last_fork_step(), ref.fork_step()) << where;
          ASSERT_EQ(key_text(exec.pool_keys()), key_text(ref.keys()))
              << where;
          ASSERT_EQ(exec.stats().snapshots_taken, ref.stats().snapshots_taken)
              << where;
          ASSERT_EQ(exec.stats().pool_hits, ref.stats().pool_hits) << where;
          ASSERT_EQ(exec.stats().pool_misses, ref.stats().pool_misses)
              << where;
        }
        // The comparison had teeth: forks from mid-run entries at full
        // capacity, and evictions at capacity 2.
        const std::string where = target.name() + " stride=" +
                                  std::to_string(stride);
        if (capacity == 128) {
          EXPECT_GT(exec.stats().pool_hits, 0u) << where;
        }
        if (capacity == 2) {
          EXPECT_GT(exec.stats().snapshots_taken, 3u) << where;
        }
      }
    }
  }
}

TEST(SnapshotPool, CountersAtJobsOneArePinned) {
  // The pool's counters at the litmus grid's bounds, read before the pool
  // was indexed: the index and LRU list pick the same fork points and the
  // same victims, so not one count moves. sb_locked@dsm explores the closed
  // form, 2,325, since every bounded schedule runs.
  struct Pin {
    LitmusTarget target;
    uint64_t explored, taken, hits, misses;
  };
  const Pin pins[] = {
      {{model::litmus::fig5_mp_annotated(), rt::Target::kSWCC},
       2325, 791, 2232, 92},
      {{model::litmus::fig4_exclusive(), rt::Target::kDSM}, 1943, 786, 1850,
       92},
      {{model::litmus::sb_locked(), rt::Target::kDSM}, 2325, 791, 2232, 92},
  };
  for (const Pin& pin : pins) {
    const ExploreReport rep =
        CheckSession(grid_opts(1, 24, 3)).explore(pin.target);
    EXPECT_EQ(rep.explored, pin.explored) << pin.target.name();
    EXPECT_EQ(rep.snapshots_taken, pin.taken) << pin.target.name();
    EXPECT_EQ(rep.snapshot_hits, pin.hits) << pin.target.name();
    EXPECT_EQ(rep.snapshot_misses, pin.misses) << pin.target.name();
  }
}

// -- Snapshot/restore round-trip properties ----------------------------------

// Captures one (machine snapshot, policy recording) pair at a fixed
// decision step — the minimal checkpoint hook, bypassing the pool.
struct CaptureHook final : sim::CheckpointHook {
  rt::Program* prog = nullptr;
  ReplayPolicy* policy = nullptr;
  uint64_t grab_step = 8;
  std::optional<rt::Program::Snapshot> snap;
  ReplayPolicy::Recording rec;

  bool wants_checkpoint(uint64_t step, int) override {
    return step == grab_step && !snap.has_value();
  }
  void on_checkpoint(uint64_t) override {
    rec = policy->export_recording();
    snap = prog->snapshot();
  }
};

// Builds the program for `spec`, runs it under a recording policy, and
// captures a mid-run checkpoint at `grab_step`.
struct RoundTrip {
  explicit RoundTrip(const StatefulSpec& spec, uint64_t grab_step = 8)
      : policy({}, /*horizon=*/24) {
    rt::ProgramOptions opts = spec.opts;
    opts.schedule_policy = &policy;
    prog = std::make_unique<rt::Program>(opts);
    hook.prog = prog.get();
    hook.policy = &policy;
    hook.grab_step = grab_step;
    prog->set_checkpoint_hook(&hook);
    spec.setup(*prog);
    prog->run(spec.body);
  }

  ReplayPolicy policy;
  std::unique_ptr<rt::Program> prog;
  CaptureHook hook;
};

TEST(SnapshotRoundTrip, RestoredContinuationIsBitIdentical) {
  const LitmusTarget target(model::litmus::fig5_mp_annotated(),
                            rt::Target::kSWCC);
  const StatefulSpec spec = target.make_spec();
  RoundTrip rt(spec);
  ASSERT_TRUE(rt.hook.snap.has_value())
      << "default schedule never reached decision step 8";

  const rt::Program::Snapshot final1 = rt.prog->snapshot();
  RunOutcome out1;
  spec.judge(*rt.prog, out1);

  // Fork the captured mid-run state and re-continue: machine digest, trace,
  // and verdict must all reproduce bit-for-bit.
  ReplayPolicy p2({}, /*horizon=*/24);
  p2.seed(rt.hook.rec);
  rt.prog->restore(*rt.hook.snap);
  rt.prog->set_schedule_policy(&p2);
  rt.prog->resume();
  const rt::Program::Snapshot final2 = rt.prog->snapshot();
  RunOutcome out2;
  spec.judge(*rt.prog, out2);

  EXPECT_EQ(sim::Machine::digest(final1.m), sim::Machine::digest(final2.m));
  EXPECT_EQ(final1.trace.size(), final2.trace.size());
  EXPECT_EQ(out1.ok, out2.ok);
  EXPECT_EQ(out1.trace_hash, out2.trace_hash);
  EXPECT_EQ(out1.message, out2.message);
}

TEST(SnapshotRoundTrip, RestoreIsIdempotent) {
  const LitmusTarget target(model::litmus::fig4_exclusive(),
                            rt::Target::kDSM);
  const StatefulSpec spec = target.make_spec();
  RoundTrip rt(spec);
  ASSERT_TRUE(rt.hook.snap.has_value());
  const uint64_t mid_digest = sim::Machine::digest(rt.hook.snap->m);

  // restore → snapshot must reproduce the captured state exactly, however
  // many times the same snapshot is re-entered.
  uint64_t final_digest = 0;
  for (int round = 0; round < 2; ++round) {
    ReplayPolicy p({}, /*horizon=*/24);
    p.seed(rt.hook.rec);
    rt.prog->restore(*rt.hook.snap);
    EXPECT_EQ(sim::Machine::digest(rt.prog->snapshot().m), mid_digest)
        << "round " << round;
    rt.prog->set_schedule_policy(&p);
    rt.prog->resume();
    const uint64_t d = sim::Machine::digest(rt.prog->snapshot().m);
    if (round == 0) {
      final_digest = d;
    } else {
      EXPECT_EQ(d, final_digest);
    }
  }
}

// -- The ReplayPolicy recording contract (scheduler state outside the
// machine must travel with the snapshot) ------------------------------------

TEST(RecordingContract, ResumingWithAnUnseededPolicyThrowsOutOfOrder) {
  const LitmusTarget target(model::litmus::fig5_mp_annotated(),
                            rt::Target::kSWCC);
  RoundTrip rt(target.make_spec());
  ASSERT_TRUE(rt.hook.snap.has_value());

  // A fresh policy that was never seeded believes the run starts at step 0;
  // the restored machine resumes at step 8. The policy must refuse loudly —
  // silently re-numbering the steps would corrupt every recorded candidate
  // count and override match of the shared prefix.
  ReplayPolicy unseeded({}, /*horizon=*/24);
  rt.prog->restore(*rt.hook.snap);
  rt.prog->set_schedule_policy(&unseeded);
  try {
    rt.prog->resume();
    FAIL() << "resume with an unseeded policy must throw";
  } catch (const util::CheckFailure& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "scheduler decisions arrived out of order"),
              std::string::npos)
        << e.what();
  }
}

TEST(RecordingContract, SeededResumeRecordsWhatAFullReplayRecords) {
  const LitmusTarget target(model::litmus::fig5_mp_annotated(),
                            rt::Target::kSWCC);
  RoundTrip rt(target.make_spec());
  ASSERT_TRUE(rt.hook.snap.has_value());
  const ReplayPolicy::Recording full = rt.policy.export_recording();

  ReplayPolicy p2({}, /*horizon=*/24);
  p2.seed(rt.hook.rec);
  rt.prog->restore(*rt.hook.snap);
  rt.prog->set_schedule_policy(&p2);
  rt.prog->resume();
  const ReplayPolicy::Recording resumed = p2.export_recording();

  // The Explorer consumes these post-run: a resumed policy must be
  // indistinguishable from one that watched the whole run.
  EXPECT_EQ(resumed.steps, full.steps);
  EXPECT_EQ(resumed.cand_count, full.cand_count);
}

}  // namespace
}  // namespace pmc::explore

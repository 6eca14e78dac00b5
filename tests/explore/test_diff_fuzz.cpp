// Differential fuzzing of randomized lock-disciplined programs: every
// back-end, under every explored schedule, must satisfy the Definition 12
// validator and land on the generator's closed-form final state. Seeded
// protocol faults must be found, program- and schedule-minimized, and
// reported with an exact one-command repro line in the assertion message.
// Each (program, back-end) pair is one GenProgramTarget checked through the
// CheckSession front door.
#include <gtest/gtest-spi.h>
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <vector>

#include "explore/check.h"
#include "explore/litmus_driver.h"
#include "fuzz/seed_plan.h"
#include "runtime/program.h"

namespace pmc::explore {
namespace {

ExploreConfig fuzz_cfg() {
  ExploreConfig cfg;
  cfg.preemption_bound = 1;
  cfg.horizon = 10;
  return cfg;
}

rt::FaultInjection all_faults() { return all_seeded_faults(); }

/// One back-end's verdict on a generated program.
struct BackendReport {
  rt::Target target;
  CheckReport rep;
};

/// Checks `prog` on every simulated back-end, in sim_targets() order.
std::vector<BackendReport> check_all(const GenProgram& prog,
                                     const rt::FaultInjection& faults,
                                     int jobs) {
  const CheckSession session(fuzz_cfg(), jobs);
  std::vector<BackendReport> out;
  for (const rt::Target t : rt::sim_targets()) {
    out.push_back({t, session.check(GenProgramTarget(prog, t, faults))});
  }
  return out;
}

/// The first back-end (in sim_targets() order) on which `prog` fails.
std::optional<BackendReport> first_failure(const GenProgram& prog,
                                           const rt::FaultInjection& faults,
                                           int jobs) {
  const CheckSession session(fuzz_cfg(), jobs);
  for (const rt::Target t : rt::sim_targets()) {
    CheckReport rep = session.check(GenProgramTarget(prog, t, faults));
    if (!rep.ok) return BackendReport{t, std::move(rep)};
  }
  return std::nullopt;
}

/// The one assertion every fuzz property funnels through: a failing report
/// trips EXPECT_TRUE with the repro line (and the minimized program) in the
/// assertion message — the contract the grep test below locks in.
void expect_diff_ok(const GenProgram& prog, const rt::FaultInjection& faults,
                    const BackendReport& b) {
  EXPECT_TRUE(b.rep.ok)
      << b.rep.minimized_message << "\n"
      << fuzz::repro_line(prog.shape, b.target, b.rep.repro_schedule, faults)
      << "\nminimized program:\n"
      << (b.rep.minimized_listing.empty() ? to_string(prog)
                                          : b.rep.minimized_listing);
}

// -- Generator invariants ---------------------------------------------------

TEST(ProgramGen, GenerationIsDeterministicAndShaped) {
  const ProgramShape shape = shape_for_seed(3);
  const GenProgram a = generate_program(shape);
  const GenProgram b = generate_program(shape);
  EXPECT_EQ(a, b);
  ASSERT_EQ(static_cast<int>(a.threads.size()), shape.cores);
  for (const auto& th : a.threads) {
    EXPECT_EQ(th.back().kind, GenOp::Kind::kBarrier);
  }
  EXPECT_NE(a, generate_program(shape_for_seed(4)));
}

TEST(ProgramGen, BarriersStaySlotAlignedAcrossThreads) {
  for (uint64_t seed : fuzz::seed_sweep(8)) {
    ProgramShape shape = shape_for_seed(seed);
    shape.barrier_pct = 40;  // force several barriers
    const GenProgram prog = generate_program(shape);
    std::vector<size_t> counts;
    for (const auto& th : prog.threads) {
      size_t n = 0;
      for (const auto& op : th) {
        if (op.kind == GenOp::Kind::kBarrier) ++n;
      }
      counts.push_back(n);
    }
    for (size_t n : counts) EXPECT_EQ(n, counts[0]) << "seed=" << seed;
  }
}

TEST(ProgramGen, DroppingABarrierDropsItEverywhere) {
  ProgramShape shape = shape_for_seed(0);
  shape.barrier_pct = 100;
  GenProgram prog = generate_program(shape);
  const auto barriers = [](const GenProgram& p, size_t t) {
    size_t n = 0;
    for (const auto& op : p.threads[t]) {
      if (op.kind == GenOp::Kind::kBarrier) ++n;
    }
    return n;
  };
  const size_t before = barriers(prog, 0);
  ASSERT_GE(before, 2u);
  // Find a barrier op in thread 1 and drop it; thread 0 must shrink too.
  size_t idx = 0;
  while (prog.threads[1][idx].kind != GenOp::Kind::kBarrier) ++idx;
  ASSERT_TRUE(prog.drop(1, idx));
  EXPECT_EQ(barriers(prog, 0), before - 1);
  EXPECT_EQ(barriers(prog, 1), before - 1);
}

TEST(ProgramGen, ClosedFormMatchesAHostRun) {
  // The host back-end is real hardware shared memory — an independent
  // implementation of the closed form.
  for (uint64_t seed : fuzz::seed_sweep(4)) {
    const GenProgram prog = generate_program(shape_for_seed(seed));
    rt::ProgramOptions opts;
    opts.target = rt::Target::kHostSC;
    opts.cores = prog.shape.cores;
    rt::Program p(opts);
    std::vector<rt::ObjId> objs;
    for (int i = 0; i < prog.shape.objects; ++i) {
      objs.push_back(p.create_typed<uint32_t>(GenProgram::initial_value(i),
                                              rt::Placement::kReplicated,
                                              "h" + std::to_string(i)));
    }
    p.run([&](rt::Env& env) { run_ops(prog, env, objs); });
    for (int i = 0; i < prog.shape.objects; ++i) {
      EXPECT_EQ(p.result<uint32_t>(objs[static_cast<size_t>(i)]),
                prog.expected_final(i))
          << "seed=" << seed << " object=" << i;
    }
  }
}

// -- The differential property ----------------------------------------------

class DiffFuzzSeeds : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DiffFuzzSeeds, EveryBackendValidatesAndAgreesOnEverySchedule) {
  const GenProgram prog = generate_program(shape_for_seed(GetParam()));
  for (const BackendReport& b : check_all(prog, {}, /*jobs=*/2)) {
    expect_diff_ok(prog, {}, b);
    EXPECT_FALSE(b.rep.truncated) << rt::to_string(b.target);
    EXPECT_GE(b.rep.explored, 1u) << rt::to_string(b.target);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DiffFuzzSeeds,
                         ::testing::ValuesIn(fuzz::seed_sweep(6)));

// -- Seeded-bug self-test ----------------------------------------------------

TEST(DiffFuzz, SeededFaultIsFoundMinimizedAndReplayable) {
  const GenProgram prog = generate_program(shape_for_seed(1));
  const std::optional<BackendReport> f = first_failure(prog, all_faults(), 2);
  ASSERT_TRUE(f.has_value());
  const CheckReport& rep = f->rep;
  const std::string repro =
      fuzz::repro_line(prog.shape, f->target, rep.repro_schedule, all_faults());

  // The repro line carries the env var, the ctest invocation, the fault
  // re-injection flag, and a step:choice replay string.
  EXPECT_NE(repro.find("PMC_FUZZ_SEEDS="), std::string::npos) << repro;
  EXPECT_NE(repro.find("ctest -R"), std::string::npos) << repro;
  EXPECT_NE(repro.find("--seed-bug"), std::string::npos) << repro;
  const size_t replay_at = repro.find("--replay=");
  ASSERT_NE(replay_at, std::string::npos) << repro;

  // The repro's replay string holds on the *original* program (the one the
  // CLI regenerates from the seed): it must fail there, fully applied.
  const DecisionString repro_schedule = parse_decision_string(
      repro.substr(replay_at + std::string("--replay=").size()));
  const CheckSession session(fuzz_cfg(), /*jobs=*/2);
  const GenProgramTarget original(prog, f->target, all_faults());
  bool applied = false;
  EXPECT_FALSE(session.replay(original, repro_schedule, &applied).ok);
  EXPECT_TRUE(applied);

  // The minimized program got smaller and the minimized schedule still
  // reproduces the exact failure on it.
  const auto* minimized =
      dynamic_cast<const GenProgramTarget*>(rep.minimized_target.get());
  ASSERT_NE(minimized, nullptr);
  EXPECT_LT(minimized->program().ops(), prog.ops());
  applied = false;
  const RunOutcome out =
      session.replay(*minimized, rep.minimized_schedule, &applied);
  EXPECT_TRUE(applied);
  EXPECT_FALSE(out.ok);
  EXPECT_EQ(out.message, rep.minimized_message);
}

TEST(DiffFuzz, SeededFailureIsIdenticalAtAnyJobCount) {
  const rt::FaultInjection faults =
      rt::FaultInjection::one("swcc_skip_exit_writeback");
  const GenProgram prog = generate_program(shape_for_seed(2));
  const std::vector<BackendReport> ref = check_all(prog, faults, 1);
  ASSERT_TRUE(std::any_of(ref.begin(), ref.end(), [](const BackendReport& b) {
    return !b.rep.ok;
  }));
  for (int jobs : {2, 8}) {
    const std::vector<BackendReport> got = check_all(prog, faults, jobs);
    ASSERT_EQ(got.size(), ref.size());
    for (size_t i = 0; i < ref.size(); ++i) {
      // to_text carries the totals, the failing and minimized schedules
      // with their verdicts, and the minimized program listing.
      EXPECT_EQ(got[i].rep.to_text(), ref[i].rep.to_text())
          << "jobs=" << jobs;
      EXPECT_EQ(to_string(got[i].rep.repro_schedule),
                to_string(ref[i].rep.repro_schedule))
          << "jobs=" << jobs;
    }
  }
}

TEST(DiffFuzz, AssertionMessageCarriesTheReproLine) {
  // Force a seeded-bug failure through the real assertion path and grep the
  // resulting gtest message for the repro line (ISSUE satellite).
  const GenProgram prog = generate_program(shape_for_seed(1));
  const std::optional<BackendReport> f = first_failure(prog, all_faults(), 2);
  ASSERT_TRUE(f.has_value());
  EXPECT_NONFATAL_FAILURE(expect_diff_ok(prog, all_faults(), *f),
                          "PMC_FUZZ_SEEDS=");
  EXPECT_NONFATAL_FAILURE(expect_diff_ok(prog, all_faults(), *f), "ctest -R");
  EXPECT_NONFATAL_FAILURE(expect_diff_ok(prog, all_faults(), *f),
                          "--replay=");
}

}  // namespace
}  // namespace pmc::explore

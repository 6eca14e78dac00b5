// The coverage-guided farm (ISSUE tentpole acceptance): mutation reaches
// strictly more distinct hb-classes than blind seeding under the same exec
// budget, runs are bit-deterministic at jobs=1, stop/--resume is lossless,
// and seeded protocol faults funnel through the minimize pipeline into
// replayable failures.
#include "fuzz/farm.h"

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "explore/litmus_driver.h"
#include "util/check.h"

namespace pmc::fuzz {
namespace {

namespace fs = std::filesystem;

class ScratchDir {
 public:
  explicit ScratchDir(const std::string& tag)
      : path_(fs::temp_directory_path() /
              ("pmc_farm_" + tag + "_" + std::to_string(::getpid()))) {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~ScratchDir() { fs::remove_all(path_); }
  std::string str() const { return path_.string(); }
  fs::path operator/(const std::string& name) const { return path_ / name; }

 private:
  fs::path path_;
};

std::string slurp(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  EXPECT_TRUE(in.good()) << p;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Small deterministic farm: two cheap back-ends, a handful of canonical
/// seeds, per-exec budgets low enough that the whole suite stays fast.
FarmOptions small_farm(uint64_t max_execs, bool mutate) {
  FarmOptions o;
  o.max_execs = max_execs;
  o.jobs = 1;
  o.seed = 1;
  o.mutate = mutate;
  o.initial_seeds = 4;
  o.backends = {rt::Target::kNoCC, rt::Target::kDSM};
  o.session.explore.max_schedules = 64;
  o.session.explore.horizon = 10;
  return o;
}

TEST(Farm, MutationBeatsBlindAtTheSameExecBudget) {
  // The acceptance gate: identical --seed, identical initial seeds and
  // per-exec budgets, identical exec count — the only difference is the
  // hb-class feedback loop (mutation + promotion roster scans).
  const uint64_t kBudget = 60;
  const FarmResult guided = Farm(small_farm(kBudget, /*mutate=*/true)).run();
  const FarmResult blind = Farm(small_farm(kBudget, /*mutate=*/false)).run();
  EXPECT_EQ(guided.execs, kBudget);
  EXPECT_EQ(blind.execs, kBudget);
  EXPECT_TRUE(guided.failures.empty());
  EXPECT_TRUE(blind.failures.empty());
  EXPECT_GT(guided.total_classes, blind.total_classes)
      << "guided=" << guided.total_classes
      << " blind=" << blind.total_classes;
  // The feedback loop is visibly doing its job: mutants got promoted.
  EXPECT_GT(guided.corpus_size, 4u);
}

TEST(Farm, RunsAreBitDeterministicAtJobsOne) {
  const FarmResult a = Farm(small_farm(30, /*mutate=*/true)).run();
  const FarmResult b = Farm(small_farm(30, /*mutate=*/true)).run();
  EXPECT_EQ(a.execs, b.execs);
  EXPECT_EQ(a.new_classes, b.new_classes);
  EXPECT_EQ(a.total_classes, b.total_classes);
  EXPECT_EQ(a.schedules, b.schedules);
  EXPECT_EQ(a.corpus_size, b.corpus_size);
  EXPECT_EQ(a.growth, b.growth);
}

TEST(Farm, CorpusOriginsAndStatsAreReproducible) {
  Farm a(small_farm(30, /*mutate=*/true));
  Farm b(small_farm(30, /*mutate=*/true));
  (void)a.run();
  (void)b.run();
  const auto& ea = a.corpus().entries();
  const auto& eb = b.corpus().entries();
  ASSERT_EQ(ea.size(), eb.size());
  for (size_t i = 0; i < ea.size(); ++i) {
    EXPECT_EQ(ea[i].id, eb[i].id);
    EXPECT_EQ(ea[i].origin, eb[i].origin);
    EXPECT_EQ(ea[i].program, eb[i].program);
    // Everything except wall_micros, which is wall-clock telemetry and
    // deliberately never feeds a farm decision.
    EXPECT_EQ(ea[i].stats.execs, eb[i].stats.execs);
    EXPECT_EQ(ea[i].stats.classes_discovered, eb[i].stats.classes_discovered);
    EXPECT_EQ(ea[i].stats.schedules_explored, eb[i].stats.schedules_explored);
    EXPECT_EQ(ea[i].stats.last_new_exec, eb[i].stats.last_new_exec);
  }
}

TEST(Farm, StopAndResumeAreLossless) {
  const ScratchDir dir("resume");

  FarmOptions first = small_farm(16, /*mutate=*/true);
  first.corpus_dir = dir.str();
  const FarmResult r1 = Farm(first).run();

  // Losslessness: what the farm saved reconstructs bit-for-bit.
  const std::string index_bytes = slurp(dir / "corpus.json");
  Corpus::load(dir.str()).save(dir.str());
  EXPECT_EQ(slurp(dir / "corpus.json"), index_bytes);

  // A resumed farm continues the same curve instead of starting over.
  FarmOptions second = small_farm(10, /*mutate=*/true);
  second.corpus_dir = dir.str();
  second.resume = true;
  Farm farm2(second);
  const FarmResult r2 = farm2.run();
  EXPECT_EQ(r2.execs, 10u);
  EXPECT_EQ(farm2.corpus().total_execs(), r1.execs + r2.execs);
  EXPECT_GE(r2.total_classes, r1.total_classes);
  EXPECT_GE(r2.growth.size(), r1.growth.size());
  // The resumed curve extends the saved one; history is never rewritten.
  for (size_t i = 0; i < r1.growth.size(); ++i) {
    EXPECT_EQ(r2.growth[i], r1.growth[i]) << "sample " << i;
  }
}

TEST(Farm, SeededFaultIsFoundMinimizedAndReplayable) {
  // Self-test soak: protocol faults seeded into every back-end must surface
  // through the farm's roster scans and come out program- and
  // schedule-minimized with a one-command repro (DiffFuzz's contract, now
  // via the farm path).
  FarmOptions o;
  o.max_execs = 12;
  o.jobs = 1;
  o.seed = 1;
  o.initial_seeds = 2;
  o.seed_base = 1;  // shape_for_seed(1): the DiffFuzz seeded-fault witness
  o.faults = explore::all_seeded_faults();
  o.session.explore.horizon = 10;
  o.session.explore.max_schedules = 1024;  // headroom: no truncation, so
                                           // shrinking always runs
  Farm farm(o);
  const FarmResult r = farm.run();
  ASSERT_FALSE(r.failures.empty());
  const FarmFailure& f = r.failures.front();
  EXPECT_FALSE(f.message.empty());
  // Roster-scan programs are canonical, so the repro is the standard
  // seed-based line, not a crash file.
  EXPECT_TRUE(f.crash_file.empty()) << f.crash_file;
  EXPECT_NE(f.repro.find("--seed-bug"), std::string::npos) << f.repro;
  EXPECT_NE(f.repro.find("--replay="), std::string::npos) << f.repro;

  // The minimized program still fails under the minimized schedule.
  const explore::CheckSession session(o.session);
  const explore::GenProgramTarget minimized(f.program, f.target, o.faults);
  bool applied = false;
  const explore::RunOutcome out = session.replay(minimized, f.schedule,
                                                 &applied);
  EXPECT_TRUE(applied);
  EXPECT_FALSE(out.ok);
  EXPECT_EQ(out.message, f.message);
}

TEST(Farm, HandoffOrderRegression) {
  // The farm's first real find — a harness bug, not a protocol bug. A
  // contended lock handoff could record the waiter's acquire event before
  // the holder's release event (the physical release is a scheduling
  // point), so the validator built no sync edge and flagged two properly
  // locked writes as a write/write race. The witness the farm minimized:
  // a flush-carrying update racing a plain update on one object. Must be
  // model-valid on every back-end (sim_env.cpp orders the events now).
  using explore::GenOp;
  explore::GenProgram prog;
  prog.shape.cores = 2;
  prog.shape.objects = 1;
  prog.shape.steps = 2;
  prog.threads = {
      {{.kind = GenOp::Kind::kCompute, .arg = 26},
       {.kind = GenOp::Kind::kUpdate, .arg = 5, .arg2 = 2, .flush = true},
       {.kind = GenOp::Kind::kBarrier}},
      {{.kind = GenOp::Kind::kUpdate, .arg = 8},
       {.kind = GenOp::Kind::kBarrier}},
  };
  ASSERT_TRUE(well_formed(prog));

  explore::SessionOptions o;
  o.explore.preemption_bound = 1;
  o.explore.horizon = 12;
  o.explore.max_schedules = 512;
  const explore::CheckSession session(o);
  for (const rt::Target t : rt::sim_targets()) {
    const explore::GenProgramTarget target(prog, t);
    const explore::CheckReport rep = session.check(target);
    EXPECT_FALSE(rep.truncated) << rt::to_string(t);
    EXPECT_TRUE(rep.ok) << rt::to_string(t) << ": "
                        << rep.first_failing_message;
  }
}

TEST(Farm, CrashFilesRoundTripAndReplay) {
  const ScratchDir dir("crash");
  CrashReport crash;
  crash.target = rt::Target::kSWCC;
  crash.program = explore::generate_program(explore::shape_for_seed(2));
  crash.schedule = explore::parse_decision_string("3:2,7:1");
  crash.message = "final state diverged on x1: got 1007, want 1012";
  crash.faults = {"swcc_skip_exit_writeback"};
  const std::string path = (dir / "crash_0.json").string();
  write_crash(path, crash);

  const CrashReport back = load_crash(path);
  EXPECT_EQ(back.target, crash.target);
  EXPECT_EQ(back.program, crash.program);
  EXPECT_EQ(back.program.shape, crash.program.shape);
  EXPECT_EQ(to_string(back.schedule), to_string(crash.schedule));
  EXPECT_EQ(back.message, crash.message);
  EXPECT_EQ(back.faults, crash.faults);
}

TEST(Farm, BudgetIsRequired) {
  FarmOptions o;  // neither seconds nor max_execs
  EXPECT_THROW(Farm(o).run(), util::CheckFailure);
}

TEST(Farm, GrowthCurveEndsAtTheReportedTotals) {
  const FarmResult r = Farm(small_farm(20, /*mutate=*/true)).run();
  ASSERT_FALSE(r.growth.empty());
  EXPECT_EQ(r.growth.back().second, r.total_classes);
  EXPECT_LE(r.growth.back().first, r.execs);
  for (size_t i = 1; i < r.growth.size(); ++i) {
    EXPECT_GT(r.growth[i].second, r.growth[i - 1].second);
    EXPECT_GE(r.growth[i].first, r.growth[i - 1].first);
  }
}

}  // namespace
}  // namespace pmc::fuzz

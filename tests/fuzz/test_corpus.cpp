// Corpus persistence (ISSUE satellite): byte-identical re-save after a
// load (the losslessness behind stop/--resume), counters surviving the
// round trip, and corrupted entries rejected with errors naming the file
// and the bad field.
#include "fuzz/corpus.h"

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "explore/program_gen.h"
#include "fuzz/json_read.h"
#include "fuzz/mutate.h"
#include "util/check.h"

namespace pmc::fuzz {
namespace {

namespace fs = std::filesystem;
using explore::GenProgram;
using explore::generate_program;
using explore::shape_for_seed;

/// Fresh scratch directory per test, removed on exit.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& tag)
      : path_(fs::temp_directory_path() /
              ("pmc_corpus_" + tag + "_" + std::to_string(::getpid()))) {
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

void patch_file(const fs::path& p, const std::string& from,
                const std::string& to) {
  std::string text = slurp(p);
  const size_t at = text.find(from);
  ASSERT_NE(at, std::string::npos) << from << " not in " << p;
  text.replace(at, from.size(), to);
  std::ofstream out(p, std::ios::binary | std::ios::trunc);
  out << text;
}

/// A corpus with two entries, per-back-end classes, growth samples and
/// non-zero counters — every field the save format carries.
Corpus populated() {
  Corpus c;
  const uint64_t a = c.add("seed:0", generate_program(shape_for_seed(0)));
  c.add("mutant:0:reshape", generate_program(shape_for_seed(3)));
  c.count_exec();
  c.note_classes("nocc", {3u, 1u, 18446744073709551615ull});
  c.record_growth();
  c.count_exec();
  c.note_classes("dsm", {7u, 3u});
  c.record_growth();
  SeedStats& stats = c.entry(a).stats;
  stats.execs = 5;
  stats.classes_discovered = 4;
  stats.schedules_explored = 120;
  stats.wall_micros = 1234;
  stats.last_new_exec = 2;
  (void)c.take_crash_index();
  return c;
}

TEST(Corpus, ProgramJsonRoundTripsExactly) {
  for (uint64_t seed : {0ull, 1ull, 2ull, 5ull}) {
    const GenProgram prog = generate_program(shape_for_seed(seed));
    const std::string text = program_to_json(prog);
    const GenProgram back =
        program_from_json(json_parse(text, "t"), "t");
    EXPECT_EQ(back, prog) << "seed " << seed;          // threads
    EXPECT_EQ(back.shape, prog.shape) << "seed " << seed;  // provenance
    // And the oracle survives: same closed form on every object.
    for (int obj = 0; obj < prog.shape.objects; ++obj) {
      EXPECT_EQ(back.expected_final(obj), prog.expected_final(obj));
    }
  }
}

TEST(Corpus, SaveLoadResaveIsByteIdentical) {
  const ScratchDir dir("resave");
  const Corpus c = populated();
  c.save(dir.str());
  const std::string index_before = slurp(dir / "corpus.json");
  const std::string seed0_before = slurp(dir / "seed_0.json");
  const std::string seed1_before = slurp(dir / "seed_1.json");

  const Corpus loaded = Corpus::load(dir.str());
  loaded.save(dir.str());
  EXPECT_EQ(slurp(dir / "corpus.json"), index_before);
  EXPECT_EQ(slurp(dir / "seed_0.json"), seed0_before);
  EXPECT_EQ(slurp(dir / "seed_1.json"), seed1_before);
}

TEST(Corpus, LoadReconstructsEveryCounter) {
  // Two inputs: the files as saved, and the same files as an older build
  // wrote them, with the stats.dpor_pruned counter of the since-deleted
  // partial-order reduction. Version 1 covers both; the extra key is
  // ignored.
  for (const bool with_dpor_pruned : {false, true}) {
    SCOPED_TRACE(with_dpor_pruned ? "older entry" : "as saved");
    const ScratchDir dir("counters");
    Corpus c = populated();
    c.save(dir.str());
    if (with_dpor_pruned) {
      patch_file(dir / "seed_0.json", "\"schedules_explored\": 120, ",
                 "\"schedules_explored\": 120, \"dpor_pruned\": 64, ");
    }

    Corpus loaded = Corpus::load(dir.str());
    EXPECT_EQ(loaded.total_execs(), 2u);
    EXPECT_EQ(loaded.total_classes(), 5u);
    ASSERT_EQ(loaded.entries().size(), 2u);
    EXPECT_EQ(loaded.entries()[0].origin, "seed:0");
    EXPECT_EQ(loaded.entries()[1].origin, "mutant:0:reshape");
    EXPECT_EQ(loaded.entry(0).stats, c.entry(0).stats);
    EXPECT_EQ(loaded.growth(), c.growth());
    // next_crash persisted: the first crash file after resume is crash_1.
    EXPECT_EQ(loaded.take_crash_index(), 1u);
    // next_id persisted: a new entry continues the dense id sequence.
    EXPECT_EQ(loaded.add("seed:9", generate_program(shape_for_seed(1))), 2u);
  }
}

TEST(Corpus, NoteClassesCountsOnlyFreshHashes) {
  Corpus c;
  EXPECT_EQ(c.note_classes("nocc", {1, 2, 3}), 3u);
  EXPECT_EQ(c.note_classes("nocc", {3, 4}), 1u);
  // Class identity is per back-end: the same hash on another back-end is
  // new coverage.
  EXPECT_EQ(c.note_classes("dsm", {3}), 1u);
  EXPECT_EQ(c.total_classes(), 5u);
}

TEST(Corpus, GrowthOnlySamplesWhenCoverageGrows) {
  Corpus c;
  c.count_exec();
  c.note_classes("nocc", {1});
  c.record_growth();
  c.count_exec();
  c.record_growth();  // nothing new: no sample
  c.count_exec();
  c.note_classes("nocc", {2});
  c.record_growth();
  const std::vector<std::pair<uint64_t, uint64_t>> want = {{1, 1}, {3, 2}};
  EXPECT_EQ(c.growth(), want);
}

TEST(Corpus, RejectsCorruptionNamingFileAndField) {
  const auto error_of = [](auto fn) -> std::string {
    try {
      fn();
    } catch (const util::CheckFailure& e) {
      return e.what();
    }
    ADD_FAILURE() << "expected a CheckFailure";
    return {};
  };

  {  // Unknown back-end in the class map.
    const ScratchDir dir("backend");
    populated().save(dir.str());
    patch_file(dir / "corpus.json", "\"dsm\"", "\"vax\"");
    const std::string err =
        error_of([&] { Corpus::load(dir.str()); });
    EXPECT_NE(err.find("corpus.json"), std::string::npos) << err;
    EXPECT_NE(err.find("classes.vax"), std::string::npos) << err;
    EXPECT_NE(err.find("unregistered back-end"), std::string::npos) << err;
  }
  {  // Entry id beyond next_id.
    const ScratchDir dir("id");
    populated().save(dir.str());
    patch_file(dir / "corpus.json", "\"entries\": [0, 1]",
               "\"entries\": [0, 7]");
    const std::string err =
        error_of([&] { Corpus::load(dir.str()); });
    EXPECT_NE(err.find("entries[]"), std::string::npos) << err;
    EXPECT_NE(err.find("7"), std::string::npos) << err;
  }
  {  // Seed file disagreeing with the index about its id.
    const ScratchDir dir("mismatch");
    populated().save(dir.str());
    patch_file(dir / "seed_1.json", "\"id\": 1", "\"id\": 0");
    const std::string err =
        error_of([&] { Corpus::load(dir.str()); });
    EXPECT_NE(err.find("seed_1.json"), std::string::npos) << err;
    EXPECT_NE(err.find("\"id\""), std::string::npos) << err;
  }
  {  // Unsupported version.
    const ScratchDir dir("version");
    populated().save(dir.str());
    patch_file(dir / "corpus.json", "\"version\": 1", "\"version\": 2");
    const std::string err =
        error_of([&] { Corpus::load(dir.str()); });
    EXPECT_NE(err.find("\"version\""), std::string::npos) << err;
  }
  {  // A stats counter that is not an exact integer.
    const ScratchDir dir("stats");
    populated().save(dir.str());
    patch_file(dir / "seed_0.json", "\"execs\": 5", "\"execs\": \"5\"");
    const std::string err =
        error_of([&] { Corpus::load(dir.str()); });
    EXPECT_NE(err.find("seed_0.json"), std::string::npos) << err;
    EXPECT_NE(err.find("stats.execs"), std::string::npos) << err;
  }
  {  // A program edit that breaks well-formedness (zero addend).
    const ScratchDir dir("program");
    Corpus c;
    GenProgram prog;
    prog.shape.cores = 2;
    prog.shape.objects = 2;
    prog.threads = {{explore::GenOp{explore::GenOp::Kind::kUpdate,
                                    /*obj=*/0, /*obj2=*/0, /*arg=*/5}},
                    {explore::GenOp{explore::GenOp::Kind::kReadOnly,
                                    /*obj=*/1}}};
    c.add("seed:0", prog);
    c.save(dir.str());
    patch_file(dir / "seed_0.json", "\"arg\":5", "\"arg\":0");
    const std::string err =
        error_of([&] { Corpus::load(dir.str()); });
    EXPECT_NE(err.find("seed_0.json"), std::string::npos) << err;
    EXPECT_NE(err.find("not a runnable program"), std::string::npos) << err;
    EXPECT_NE(err.find("zero addend"), std::string::npos) << err;
  }
  {  // Missing seed file referenced by the index.
    const ScratchDir dir("missing");
    populated().save(dir.str());
    fs::remove(dir / "seed_1.json");
    const std::string err =
        error_of([&] { Corpus::load(dir.str()); });
    EXPECT_NE(err.find("seed_1.json"), std::string::npos) << err;
  }
}

TEST(Corpus, AddRefusesMalformedPrograms) {
  Corpus c;
  GenProgram broken = generate_program(shape_for_seed(0));
  broken.threads[0].push_back({explore::GenOp::Kind::kBarrier});
  EXPECT_THROW(c.add("seed:0", broken), util::CheckFailure);
  EXPECT_TRUE(c.entries().empty());
}

}  // namespace
}  // namespace pmc::fuzz

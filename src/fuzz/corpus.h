// The fuzzing farm's seed corpus (DESIGN.md §14): every interesting
// GenProgram the farm has run, ranked by the new hb-classes it reached, plus
// the per-back-end global class sets the ranking is measured against.
//
// Persistence contract: save() writes `corpus.json` (index, per-back-end
// class sets, coverage-growth curve) plus one `seed_<id>.json` per entry
// into a directory, and load() reconstructs the exact in-memory state — all
// counters are integers serialized exactly (no doubles), orderings are
// canonical (entries by id, back-ends by name, hashes ascending), so
// save(load(dir)) re-emits byte-identical files. That idempotence is what
// makes stop/--resume lossless, and tests/fuzz/test_corpus.cpp locks it.
// Corrupted files are rejected with util::CheckFailure errors naming
// file:line and the bad field, in the MachineConfig parser's style.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "explore/program_gen.h"
#include "fuzz/json_read.h"

namespace pmc::fuzz {

/// Per-seed bookkeeping, all exact integers. `energy`-relevant fields:
/// classes_discovered (how productive the seed has been) and last_new_exec
/// (how recently), both against the farm-wide exec counter.
struct SeedStats {
  uint64_t execs = 0;                // (program, back-end) checks run
  uint64_t classes_discovered = 0;   // new-to-corpus classes it contributed
  uint64_t schedules_explored = 0;
  uint64_t wall_micros = 0;          // telemetry only; never in decisions
  uint64_t last_new_exec = 0;        // farm exec count at the last discovery

  friend bool operator==(const SeedStats&, const SeedStats&) = default;
};

struct SeedEntry {
  uint64_t id = 0;
  std::string origin;  // "seed:<n>" or "mutant:<parent-id>:<operator>"
  explore::GenProgram program;
  SeedStats stats;
};

/// Canonical JSON for one GenProgram (single line, fixed member order).
std::string program_to_json(const explore::GenProgram& prog);
/// Inverse; throws util::CheckFailure naming origin:line + field on any
/// structural problem, including programs that fail well_formed().
explore::GenProgram program_from_json(const JsonValue& v,
                                      const std::string& origin);

class Corpus {
 public:
  /// Adds an entry (validated well-formed) and returns its id.
  uint64_t add(std::string origin, explore::GenProgram program);

  const std::vector<SeedEntry>& entries() const { return entries_; }
  SeedEntry& entry(uint64_t id);

  /// Folds one exploration's class set for `backend` into the global sets;
  /// returns how many hashes were new to the corpus.
  uint64_t note_classes(const std::string& backend,
                        const std::vector<uint64_t>& hashes);

  /// Σ per-back-end class-set sizes — "distinct hb-classes reached per
  /// back-end", the farm's headline coverage number.
  uint64_t total_classes() const;
  const std::map<std::string, std::set<uint64_t>>& classes() const {
    return classes_;
  }

  uint64_t total_execs() const { return total_execs_; }
  void count_exec() { ++total_execs_; }

  /// Appends an (execs, total_classes) sample when coverage grew; the curve
  /// is cumulative across save/load, so a resumed farm extends it.
  void record_growth();
  const std::vector<std::pair<uint64_t, uint64_t>>& growth() const {
    return growth_;
  }

  /// Next crash-file index (crash_<k>.json); persisted so a resumed farm
  /// never overwrites an earlier repro.
  uint64_t take_crash_index() { return next_crash_++; }

  /// Writes corpus.json + seed_<id>.json into `dir` (created if needed).
  void save(const std::string& dir) const;
  /// Reconstructs a corpus from `dir`; throws util::CheckFailure with
  /// file:line + field on anything malformed.
  static Corpus load(const std::string& dir);

 private:
  std::vector<SeedEntry> entries_;  // sorted by id (ids are dense)
  std::map<std::string, std::set<uint64_t>> classes_;
  std::vector<std::pair<uint64_t, uint64_t>> growth_;
  uint64_t next_id_ = 0;
  uint64_t next_crash_ = 0;
  uint64_t total_execs_ = 0;
};

}  // namespace pmc::fuzz

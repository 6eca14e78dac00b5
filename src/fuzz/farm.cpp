#include "fuzz/farm.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <thread>

#include "fuzz/seed_plan.h"
#include "obs/json.h"
#include "runtime/backends/registry.h"
#include "util/check.h"

namespace pmc::fuzz {

using explore::CheckReport;
using explore::GenProgram;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

void write_text_file(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  PMC_CHECK_MSG(f != nullptr, "cannot open " << path << " for writing");
  const size_t n = std::fwrite(text.data(), 1, text.size(), f);
  const bool ok = n == text.size() && std::fclose(f) == 0;
  PMC_CHECK_MSG(ok, "short write to " << path);
}

/// True when the CLI can regenerate `prog` from its seed alone — the
/// precondition for the standard ctest/replay repro line.
bool seed_reproducible(const GenProgram& prog) {
  return prog.shape == explore::shape_for_seed(prog.shape.seed) &&
         prog == explore::generate_program(prog.shape);
}

}  // namespace

explore::SessionOptions default_farm_session() {
  explore::SessionOptions s;
  // Breadth over depth: one preemption and a short horizon keep an exec in
  // the low milliseconds, and the schedule cap bounds the worst case.
  s.explore.preemption_bound = 1;
  s.explore.horizon = 12;
  s.explore.max_schedules = 192;
  s.jobs = 1;
  return s;
}

void write_crash(const std::string& path, const CrashReport& crash) {
  std::string s = "{\n";
  s += "  \"target\": " + obs::json_quote(rt::to_string(crash.target)) + ",\n";
  s += "  \"message\": " + obs::json_quote(crash.message) + ",\n";
  s += "  \"faults\": [";
  for (size_t i = 0; i < crash.faults.size(); ++i) {
    if (i) s += ", ";
    s += obs::json_quote(crash.faults[i]);
  }
  s += "],\n";
  s += "  \"schedule\": " + obs::json_quote(to_string(crash.schedule)) + ",\n";
  s += "  \"program\": " + program_to_json(crash.program) + "\n";
  s += "}\n";
  write_text_file(path, s);
}

CrashReport load_crash(const std::string& path) {
  const JsonValue v = json_parse_file(path);
  v.require_object(path, "crash");
  CrashReport crash;
  const std::string& name =
      v.get("target", path, "target").as_string(path, "target");
  const std::optional<rt::Target> target = rt::target_from_string(name);
  PMC_CHECK_MSG(target.has_value(),
                path << ": field \"target\" names unknown back-end \"" << name
                     << "\" (want " << rt::backend_names() << ")");
  crash.target = *target;
  crash.message = v.get("message", path, "message").as_string(path, "message");
  for (const JsonValue& f :
       v.get("faults", path, "faults").as_array(path, "faults")) {
    crash.faults.push_back(f.as_string(path, "faults[]"));
  }
  crash.schedule = explore::parse_decision_string(
      v.get("schedule", path, "schedule").as_string(path, "schedule"));
  crash.program = program_from_json(v.get("program", path, "program"), path);
  return crash;
}

Farm::Farm(FarmOptions opts) : opts_(std::move(opts)) {
  backends_ = opts_.backends.empty() ? rt::sim_targets() : opts_.backends;
  PMC_CHECK_MSG(!backends_.empty(), "the farm needs at least one back-end");
}

uint64_t Farm::pick_parent(util::Rng& rng) const {
  const auto& entries = corpus_.entries();
  PMC_CHECK_MSG(!entries.empty(), "cannot mutate from an empty corpus");
  // Energy: every entry keeps a base chance, productive parents (classes
  // contributed, directly or via a promoted mutant) are drawn more, and a
  // recent discovery adds a short-lived bonus so the farm exploits a vein
  // while it is producing. All integer weights — the draw is deterministic.
  const uint64_t now = corpus_.total_execs();
  uint64_t total = 0;
  std::vector<uint64_t> weight(entries.size());
  for (size_t i = 0; i < entries.size(); ++i) {
    const SeedStats& st = entries[i].stats;
    uint64_t w = 1 + std::min<uint64_t>(st.classes_discovered, 64);
    if (st.classes_discovered > 0 && now - st.last_new_exec <= 32) w += 16;
    weight[i] = w;
    total += w;
  }
  uint64_t r = rng.next_below(total);
  for (size_t i = 0; i < entries.size(); ++i) {
    if (r < weight[i]) return entries[i].id;
    r -= weight[i];
  }
  return entries.back().id;
}

Farm::Job Farm::next_job(util::Rng& rng) {
  if (!queue_.empty()) {
    Job j = std::move(queue_.front());
    queue_.erase(queue_.begin());
    return j;
  }
  Job j;
  j.target = backends_[backend_rr_++ % backends_.size()];
  if (opts_.mutate) {
    j.entry_id = pick_parent(rng);
    std::string what;
    j.program =
        mutate(corpus_.entry(j.entry_id).program, rng, opts_.limits, &what);
    j.origin = "mutant:" + std::to_string(j.entry_id) + ":" + what;
  } else {
    const uint64_t seed = opts_.seed_base + next_blind_++;
    j.program = explore::generate_program(explore::shape_for_seed(seed));
    j.origin = "seed:" + std::to_string(seed);
  }
  return j;
}

void Farm::process(const Job& job, const CheckReport& rep,
                   uint64_t wall_micros, FarmResult& result) {
  corpus_.count_exec();
  ++result.execs;
  result.schedules += rep.explored;
  const uint64_t fresh =
      corpus_.note_classes(rt::to_string(job.target), rep.trace_hashes);
  result.new_classes += fresh;
  const uint64_t now = corpus_.total_execs();
  if (job.from_corpus) {
    SeedStats& st = corpus_.entry(job.entry_id).stats;
    ++st.execs;
    st.classes_discovered += fresh;
    st.schedules_explored += rep.explored;
    st.wall_micros += wall_micros;
    if (fresh > 0) st.last_new_exec = now;
  } else if (fresh > 0) {
    // Promotion: the mutant (or blind fresh seed) reached classes nothing
    // before it had, so it joins the corpus. Only the guided mode follows
    // up with a roster scan — that scan *is* the coverage feedback.
    const uint64_t id = corpus_.add(job.origin, job.program);
    SeedStats& st = corpus_.entry(id).stats;
    st.execs = 1;
    st.classes_discovered = fresh;
    st.schedules_explored = rep.explored;
    st.wall_micros = wall_micros;
    st.last_new_exec = now;
    if (opts_.mutate) {
      corpus_.entry(job.entry_id).stats.last_new_exec = now;  // parent credit
      for (const rt::Target t : backends_) {
        if (t == job.target) continue;  // this exec already covered it
        Job scan;
        scan.entry_id = id;
        scan.from_corpus = true;
        scan.program = corpus_.entry(id).program;
        scan.target = t;
        queue_.push_back(std::move(scan));
      }
    }
  }
  corpus_.record_growth();
  if (rep.ok) return;

  std::string message =
      rep.minimized_message.empty() ? rep.first_failing_message
                                    : rep.minimized_message;
  const std::pair<std::string, std::string> key(rt::to_string(job.target),
                                                message);
  if (std::find(failure_keys_.begin(), failure_keys_.end(), key) !=
      failure_keys_.end()) {
    return;  // the same verdict on the same back-end, already minimized
  }
  failure_keys_.push_back(key);

  FarmFailure f;
  f.entry_id = job.entry_id;
  f.target = job.target;
  f.message = std::move(message);
  const auto* shrunk = dynamic_cast<const explore::GenProgramTarget*>(
      rep.minimized_target.get());
  f.program = shrunk != nullptr ? shrunk->program() : job.program;
  f.schedule =
      shrunk != nullptr ? rep.minimized_schedule : rep.repro_schedule;
  if (seed_reproducible(job.program)) {
    f.repro = repro_line(job.program.shape, job.target, rep.repro_schedule,
                         opts_.faults);
  } else if (!opts_.corpus_dir.empty()) {
    // A mutant has no generating seed, so the replayable artifact is the
    // program itself: crash_<k>.json plus the schedule minimized on it.
    std::filesystem::create_directories(opts_.corpus_dir);
    const uint64_t k = corpus_.take_crash_index();
    f.crash_file = (std::filesystem::path(opts_.corpus_dir) /
                    ("crash_" + std::to_string(k) + ".json"))
                       .string();
    CrashReport crash;
    crash.target = job.target;
    crash.program = job.program;
    crash.schedule = rep.repro_schedule;
    crash.message = f.message;
    crash.faults = opts_.faults.names();
    write_crash(f.crash_file, crash);
    f.repro = "repro: fuzz_farm --crash=" + f.crash_file;
  } else {
    f.repro = "repro: (mutant in an in-memory run; pass --corpus=DIR to "
              "persist a replayable crash file)";
  }
  result.failures.push_back(std::move(f));
}

FarmResult Farm::run() {
  PMC_CHECK_MSG(opts_.seconds > 0 || opts_.max_execs > 0,
                "the farm needs a --time or --max-execs budget");
  const auto start = Clock::now();
  if (opts_.resume && !opts_.corpus_dir.empty() &&
      std::filesystem::exists(std::filesystem::path(opts_.corpus_dir) /
                              "corpus.json")) {
    corpus_ = Corpus::load(opts_.corpus_dir);
  }
  if (corpus_.entries().empty()) {
    // Fresh start: the canonical per-seed programs every mode shares. Each
    // new entry is scanned across the whole roster.
    for (uint64_t n = 0; n < opts_.initial_seeds; ++n) {
      const uint64_t seed = opts_.seed_base + n;
      const uint64_t id =
          corpus_.add("seed:" + std::to_string(seed),
                      explore::generate_program(explore::shape_for_seed(seed)));
      for (const rt::Target t : backends_) {
        Job scan;
        scan.entry_id = id;
        scan.from_corpus = true;
        scan.program = corpus_.entry(id).program;
        scan.target = t;
        queue_.push_back(std::move(scan));
      }
    }
    next_blind_ = opts_.initial_seeds;
  }
  util::Rng rng(opts_.seed);
  FarmResult result;
  const int jobs = std::max(1, opts_.jobs);
  uint64_t last_progress_execs = 0;
  bool stop = false;
  while (!stop) {
    // One batch-synchronous round: jobs are chosen up front from the
    // pre-round corpus, run concurrently, and merged in job order.
    std::vector<Job> round;
    for (int i = 0; i < jobs; ++i) {
      if (opts_.max_execs != 0 &&
          result.execs + round.size() >= opts_.max_execs) {
        break;
      }
      round.push_back(next_job(rng));
    }
    if (round.empty()) break;
    std::vector<CheckReport> reps(round.size());
    std::vector<uint64_t> micros(round.size());
    const auto worker = [&](size_t i) {
      const auto t0 = Clock::now();
      explore::SessionOptions s = opts_.session;
      s.jobs = 1;
      const explore::CheckSession session(s);
      const explore::GenProgramTarget target(round[i].program,
                                             round[i].target, opts_.faults);
      reps[i] = session.check(target);
      micros[i] = static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                                t0)
              .count());
    };
    if (round.size() == 1) {
      worker(0);
    } else {
      std::vector<std::thread> pool;
      pool.reserve(round.size());
      for (size_t i = 0; i < round.size(); ++i) {
        pool.emplace_back(worker, i);
      }
      for (std::thread& t : pool) t.join();
    }
    for (size_t i = 0; i < round.size(); ++i) {
      process(round[i], reps[i], micros[i], result);
    }
    if (opts_.progress && result.execs - last_progress_execs >= 20) {
      last_progress_execs = result.execs;
      opts_.progress("[farm] execs=" + std::to_string(result.execs) +
                     " classes=" + std::to_string(corpus_.total_classes()) +
                     " corpus=" + std::to_string(corpus_.entries().size()) +
                     " failures=" + std::to_string(result.failures.size()) +
                     " t=" + std::to_string(seconds_since(start)) + "s");
    }
    if (opts_.max_execs != 0 && result.execs >= opts_.max_execs) stop = true;
    if (opts_.seconds > 0 && seconds_since(start) >= opts_.seconds) {
      stop = true;
    }
  }
  result.total_classes = corpus_.total_classes();
  result.corpus_size = corpus_.entries().size();
  result.growth = corpus_.growth();
  result.seconds = seconds_since(start);
  if (!opts_.corpus_dir.empty()) corpus_.save(opts_.corpus_dir);
  return result;
}

}  // namespace pmc::fuzz

// Trace validation: replaying a recorded operation stream through the model.
//
// The runtime back-ends can record object-granularity PMC operations
// (acquire/read/write/release/fence, with object content hashes as values)
// in global issue order. The TraceValidator rebuilds the execution graph via
// the Table I rules and checks every read against the legal-value set of
// Definition 12 — turning the formal model into an oracle for the simulated
// coherence protocols.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "model/execution.h"

namespace pmc::model {

struct TraceEvent {
  enum class Kind : uint8_t { kRead, kWrite, kAcquire, kRelease, kFence };
  Kind kind = Kind::kFence;
  ProcId proc = 0;
  LocId loc = -1;  // ignored for fences
  uint64_t value = 0;  // read: observed value; write: stored value

  static TraceEvent read(ProcId p, LocId v, uint64_t value) {
    return {Kind::kRead, p, v, value};
  }
  static TraceEvent write(ProcId p, LocId v, uint64_t value) {
    return {Kind::kWrite, p, v, value};
  }
  static TraceEvent acquire(ProcId p, LocId v) {
    return {Kind::kAcquire, p, v, 0};
  }
  static TraceEvent release(ProcId p, LocId v) {
    return {Kind::kRelease, p, v, 0};
  }
  static TraceEvent fence(ProcId p) { return {Kind::kFence, p, -1, 0}; }
};

struct TraceViolation {
  size_t event_index;
  std::string message;
};

/// What one validation concluded, without the execution graph: everything
/// a judge reads. A pure function of (processors, locations, initial
/// values, trace), which is what lets an exact-trace memo reuse it.
struct TraceVerdict {
  bool ok = true;
  bool saturated = false;
  size_t num_events = 0;
  std::string first_violation;  // empty when ok
};

class TraceValidator {
 public:
  struct Options {
    /// Stop building the graph beyond this many operations; the validator
    /// then reports `saturated` and is no longer ok(). Far above the
    /// paper's largest runs (RADIOSITY at 768 patches: about 38k ops on 32
    /// cores, 43k on 256), while bounding the graph's memory.
    size_t max_ops = 1'000'000;
  };

  TraceValidator(int num_procs, int num_locs,
                 const std::vector<uint64_t>& initial, const Options& opts);
  TraceValidator(int num_procs, int num_locs,
                 const std::vector<uint64_t>& initial = {})
      : TraceValidator(num_procs, num_locs, initial, Options()) {}

  /// Feed the next event (in global issue order).
  void on_event(const TraceEvent& e);
  void on_events(const std::vector<TraceEvent>& events);

  /// No violation, and every event was checked (a saturated validation
  /// is a failure, not a pass).
  bool ok() const { return violations_.empty() && !saturated_; }
  bool saturated() const { return saturated_; }
  size_t num_events() const { return num_events_; }
  const std::vector<TraceViolation>& violations() const { return violations_; }
  const Execution& execution() const { return exec_; }
  /// Human-readable first violation, or the saturation notice when the
  /// only failure is saturation (empty when ok()).
  std::string first_violation() const;
  TraceVerdict verdict() const {
    return {ok(), saturated_, num_events_, first_violation()};
  }

 private:
  void flag(const std::string& msg);

  Execution exec_;
  Options opts_;
  size_t num_events_ = 0;
  bool saturated_ = false;
  std::vector<TraceViolation> violations_;
};

}  // namespace pmc::model

// Back-end interface: the Table II mapping from annotations to platform
// actions. One implementation per column (plus the no-CC baseline of §VI-A).
//
// A Section is the per-core state of one open entry/exit pair. The back-end
// fills in where the object's bytes live for the duration of the section
// (data_addr / mem class); the Env routes all reads and writes through it.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "runtime/object.h"

namespace pmc::rt {

struct Section {
  ObjId obj = -1;
  const ObjDesc* desc = nullptr;
  bool exclusive = false;
  bool dirty = false;
  bool locked = false;         // entry_ro of a large object took the lock
  sim::Addr data_addr = 0;     // where reads/writes go during this section
  sim::MemClass cls = sim::MemClass::kSharedData;
};

class Backend {
 public:
  virtual ~Backend() = default;
  virtual const char* name() const = 0;
  /// DSM needs every shared object replicated in the local memories.
  virtual bool needs_replicas() const { return false; }

  /// entry_x / entry_ro (by s.exclusive): lock + data staging per Table II.
  /// Must set s.data_addr and s.cls.
  virtual void enter(sim::Core& core, Section& s) = 0;
  /// exit_x / exit_ro: write-back / flush / unlock per Table II.
  virtual void exit(sim::Core& core, Section& s) = 0;
  /// flush(X) inside an exclusive section: best-effort global visibility.
  virtual void flush(sim::Core& core, Section& s) = 0;
  /// The MicroBlaze is in-order, so fences emit nothing (Table II row 2);
  /// kept virtual for out-of-order core models.
  virtual void fence(sim::Core& core) { (void)core; }

  /// Host-side readback of an object's final payload after the run.
  virtual void read_final(ObjId id, void* out, size_t n) = 0;

  /// Registers the back-end's mutable host-side state (staging buffers,
  /// per-core cursors) with the machine's snapshot contract (DESIGN.md §10).
  /// Called after ObjectSpace::freeze and before every simulated run.
  virtual void register_state(sim::Machine& m) { (void)m; }
};

/// One value per registered back-end. The registry
/// (runtime/backends/registry.h) is the single source of truth for names,
/// factories, machine requirements, and seeded faults; this enum only gives
/// them stable compact ids.
enum class BackendKind : uint8_t { kNoCC, kSWCC, kDSM, kSPM, kRegC, kShL1 };

/// The registered CLI name ("nocc", "swcc", ...). Throws util::CheckFailure
/// naming the registered back-ends for a kind outside the registry.
const char* to_string(BackendKind k);
/// Inverse of to_string (exact match against the registry), or std::nullopt
/// for anything else — CLIs report their own errors (via
/// backend_names() so the message can never drift from the registry).
std::optional<BackendKind> backend_from_string(std::string_view name);

/// Deliberate protocol bugs for failure-injection tests, as a named-fault
/// table: each back-end registers the fault names it implements
/// (BackendDescriptor::faults), a back-end only reads its own names, and
/// every seeded fault must be caught by the Definition 12 trace validator
/// or the model outcome oracle (tests/runtime/..., explore --seed-bug).
class FaultInjection {
 public:
  FaultInjection() = default;
  /// A single named fault; the name must be registered by some back-end.
  static FaultInjection one(std::string_view name) {
    FaultInjection f;
    f.enable(name);
    return f;
  }
  /// Enables a named fault. Unknown names are hard errors — a typo'd fault
  /// would silently test nothing.
  void enable(std::string_view name);
  bool enabled(std::string_view name) const;
  bool any() const { return !names_.empty(); }
  const std::vector<std::string>& names() const { return names_; }

 private:
  std::vector<std::string> names_;
};

/// Legitimate implementation choices the paper discusses (§V-A):
/// exit_x may be lazy ("keeps all modifications to X local, until another
/// process does an acquire of X") or eager ("would do a flush(X) before
/// giving up the lock"). Only the DSM back-end distinguishes the two —
/// SWCC's exit writeback is inherently eager, and SPM must always copy back.
struct BackendPolicy {
  bool dsm_eager_release = false;
  /// Regional Consistency: how many consecutive object ids share one region
  /// (region = id / regc_objects_per_region). 1 keeps per-object locking.
  uint32_t regc_objects_per_region = 1;
};

/// Creates a back-end bound to `objs`. Checks that the machine configuration
/// matches (e.g. SWCC requires cache_shared, no-CC requires uncached).
std::unique_ptr<Backend> make_backend(BackendKind kind, ObjectSpace& objs,
                                      const FaultInjection& faults,
                                      const BackendPolicy& policy);

}  // namespace pmc::rt

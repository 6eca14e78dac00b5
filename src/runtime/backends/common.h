// Shared plumbing for the Table II back-end implementations.
#pragma once

#include <algorithm>
#include <memory>
#include <vector>

#include "runtime/backend.h"
#include "util/check.h"

namespace pmc::rt::backends {

class BackendBase : public Backend {
 public:
  /// Pre-sizes the per-core staging buffers to the largest object span and
  /// couples their bytes to machine snapshots: a transfer may be checkpointed
  /// mid-flight, so partially-staged bytes are machine state.
  void register_state(sim::Machine& m) override {
    uint32_t max_span = 0;
    for (ObjId i = 0; i < objs_.count(); ++i) {
      max_span = std::max(max_span, used_span_of(objs_.desc(i)));
    }
    scratch_.assign(static_cast<size_t>(m.num_cores()),
                    std::vector<uint8_t>(max_span, 0));
    registered_ = true;
    if (max_span == 0) return;
    for (auto& b : scratch_) m.register_state(b.data(), b.size());
  }

 protected:
  explicit BackendBase(ObjectSpace& objs)
      : objs_(objs), m_(objs.machine()), locks_(objs.locks()) {}

  /// Reads the final payload from the SDRAM master copy (drained).
  void read_final_sdram(ObjId id, void* out, size_t n) {
    const ObjDesc& d = objs_.desc(id);
    PMC_CHECK(n <= d.size);
    m_.peek(d.sdram_addr, out, n);
  }

  /// Per-core staging buffer for object transfers. A member rather than a
  /// local in enter/flush: a heap-owning local alive across a scheduler
  /// yield would sit on a fiber stack and break Machine::restore's
  /// stack-byte copy (DESIGN.md §10).
  uint8_t* scratch(int core, size_t n) {
    if (scratch_.empty()) {
      scratch_.resize(static_cast<size_t>(m_.num_cores()));
    }
    std::vector<uint8_t>& b = scratch_[static_cast<size_t>(core)];
    if (b.size() < n) {
      // register_state pre-sizes to the maximum span, so the buffer never
      // moves after its bytes were registered.
      PMC_CHECK_MSG(!registered_, "staging buffer grew after register_state");
      b.resize(n);
    }
    return b.data();
  }

  ObjectSpace& objs_;
  sim::Machine& m_;
  sync::LockManager& locks_;

 private:
  static uint32_t used_span_of(const ObjDesc& d);  // defined below
  std::vector<std::vector<uint8_t>> scratch_;
  bool registered_ = false;
};

std::unique_ptr<Backend> make_nocc(ObjectSpace& objs);
std::unique_ptr<Backend> make_swcc(ObjectSpace& objs, const FaultInjection& f);
std::unique_ptr<Backend> make_dsm(ObjectSpace& objs, const FaultInjection& f,
                                  const BackendPolicy& policy);
std::unique_ptr<Backend> make_spm(ObjectSpace& objs, const FaultInjection& f);
std::unique_ptr<Backend> make_regc(ObjectSpace& objs, const FaultInjection& f,
                                   const BackendPolicy& policy);
std::unique_ptr<Backend> make_shl1(ObjectSpace& objs, const FaultInjection& f);

/// The byte span of an object that can ever be touched (payload + version
/// word); the alignment padding behind it is never accessed, so cache
/// maintenance and transfers skip it.
inline uint32_t used_span(const ObjDesc& d) { return d.version_off + 4; }

/// Objects whose size exceeds the atomic unit (an aligned 32-bit word on
/// this 32-bit platform) need the lock even for read-only access (§V-A) —
/// unless they are immutable, in which case no torn read is possible.
inline bool needs_ro_lock(const ObjDesc& d) {
  return d.size > 4 && !d.immutable;
}

inline uint32_t BackendBase::used_span_of(const ObjDesc& d) {
  return used_span(d);
}

}  // namespace pmc::rt::backends

// Env implementation over the simulated SoC.
#pragma once

#include <array>
#include <vector>

#include "model/trace.h"
#include "runtime/backend.h"
#include "runtime/env.h"
#include "sync/barrier.h"

namespace pmc::rt {

/// Shared, single-runner-safe state of one simulated program run.
struct SimRuntime {
  ObjectSpace* objs = nullptr;
  Backend* backend = nullptr;
  sync::Barrier* bar = nullptr;
  /// When set, every annotation maintains the hidden object version and
  /// records a model::TraceEvent; the Program validates the stream against
  /// Definition 12 after the run. Adds version-word traffic, so Fig. 8
  /// timing runs keep it off.
  bool validate = false;
  std::vector<model::TraceEvent> trace;
};

class SimEnv final : public Env {
 public:
  /// Deepest open-section nesting one core may hold. A fixed bound, not a
  /// growable stack: SimEnv lives on a (possibly fiber) stack, and a
  /// heap-owning member would break Machine::restore's stack-byte copy
  /// (DESIGN.md §10). Workload bodies that mirror the open-section stack in
  /// their own locals can size them with this same bound.
  static constexpr int kMaxOpen = 8;

  SimEnv(SimRuntime& rt, sim::Core& core) : rt_(rt), core_(core) {}

  int id() const override { return core_.id(); }
  int num_procs() const override { return core_.num_cores(); }

  void entry_x(ObjId obj) override { enter(obj, /*exclusive=*/true); }
  void exit_x(ObjId obj) override { exit(obj, /*exclusive=*/true); }
  void entry_ro(ObjId obj) override { enter(obj, /*exclusive=*/false); }
  void exit_ro(ObjId obj) override { exit(obj, /*exclusive=*/false); }
  void fence() override;
  void flush(ObjId obj) override;

  void read(ObjId obj, uint32_t off, void* out, size_t n) override;
  void write(ObjId obj, uint32_t off, const void* data, size_t n) override;

  void compute(uint64_t instructions) override {
    sim::Core::Deferred defer(core_);
    core_.compute(instructions);
  }
  void barrier() override {
    core_.settle();
    rt_.bar->wait(core_);
  }

  /// End-of-run discipline check: every section closed.
  void finish() const;

  sim::Core& core() { return core_; }

 private:
  void enter(ObjId obj, bool exclusive);
  void exit(ObjId obj, bool exclusive);
  Section* find(ObjId obj);
  /// Bumps the hidden version through the section's data path and records
  /// the Write event (validation mode only; no-op otherwise).
  void publish_version(Section& s);

  SimRuntime& rt_;
  sim::Core& core_;
  /// LIFO stack of open sections (see kMaxOpen for why it is a fixed inline
  /// array; Section itself is trivially copyable).
  std::array<Section, kMaxOpen> open_{};
  int num_open_ = 0;
};

}  // namespace pmc::rt

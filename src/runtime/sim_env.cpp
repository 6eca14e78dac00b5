#include "runtime/sim_env.h"

#include "util/check.h"

namespace pmc::rt {

Section* SimEnv::find(ObjId obj) {
  for (int i = 0; i < num_open_; ++i) {
    if (open_[i].obj == obj) return &open_[i];
  }
  return nullptr;
}

// Deferred handoffs (DESIGN.md §2): read, write and compute are the data
// path and defer; every other call settles first and runs eagerly, so the
// back-end's host tables, the model trace and the version counters change
// in the eager schedule's order.

void SimEnv::enter(ObjId obj, bool exclusive) {
  core_.settle();
  PMC_CHECK_MSG(find(obj) == nullptr,
                "core " << id() << " double-enters "
                        << rt_.objs->desc(obj).name);
  PMC_CHECK_MSG(num_open_ < kMaxOpen,
                "core " << id() << " nests more than " << kMaxOpen
                        << " open sections");
  Section s;
  s.obj = obj;
  s.desc = &rt_.objs->desc(obj);
  s.exclusive = exclusive;
  PMC_CHECK_MSG(!(exclusive && s.desc->immutable),
                s.desc->name << " is immutable: entry_x is not allowed");
  rt_.backend->enter(core_, s);
  if (rt_.validate) {
    if (exclusive) {
      rt_.trace.push_back(model::TraceEvent::acquire(id(), obj));
    }
    // The version read through the section's own data path is the staleness
    // witness the validator checks against Definition 12.
    const uint32_t ver =
        core_.load_u32(s.data_addr + s.desc->version_off, s.cls);
    rt_.trace.push_back(model::TraceEvent::read(id(), obj, ver));
  }
  open_[num_open_++] = s;
}

void SimEnv::publish_version(Section& s) {
  if (!rt_.validate) return;
  const uint32_t ver = rt_.objs->next_version(s.obj);
  core_.store_u32(s.data_addr + s.desc->version_off, ver, s.cls);
  rt_.trace.push_back(model::TraceEvent::write(id(), s.obj, ver));
}

void SimEnv::exit(ObjId obj, bool exclusive) {
  core_.settle();
  PMC_CHECK_MSG(num_open_ > 0 && open_[num_open_ - 1].obj == obj,
                "core " << id() << " exits " << rt_.objs->desc(obj).name
                        << " out of LIFO order");
  Section& s = open_[num_open_ - 1];
  PMC_CHECK_MSG(s.exclusive == exclusive,
                "exit kind does not match entry kind for " << s.desc->name);
  if (s.exclusive && s.dirty) publish_version(s);
  if (rt_.validate && s.exclusive) {
    // Recorded *before* backend->exit physically releases the lock: the
    // release's store is a scheduling point, so a waiter blocked in
    // acquire() can otherwise complete and log its acquire first — the
    // validator then sees acq before rel, builds no sync edge, and flags
    // two properly-locked writes as a race. (Found by the fuzz farm:
    // tests/fuzz/test_farm.cpp, HandoffOrderRegression.)
    rt_.trace.push_back(model::TraceEvent::release(id(), obj));
  }
  rt_.backend->exit(core_, s);
  open_[--num_open_] = Section{};
}

void SimEnv::fence() {
  core_.settle();
  rt_.backend->fence(core_);
  if (rt_.validate) rt_.trace.push_back(model::TraceEvent::fence(id()));
}

void SimEnv::flush(ObjId obj) {
  core_.settle();
  Section* s = find(obj);
  PMC_CHECK_MSG(s != nullptr && s->exclusive,
                "flush is only allowed inside an entry_x/exit_x pair (§V-A)");
  if (s->dirty) publish_version(*s);
  rt_.backend->flush(core_, *s);
  s->dirty = false;  // later writes re-dirty for the exit writeback
}

void SimEnv::read(ObjId obj, uint32_t off, void* out, size_t n) {
  Section* s = find(obj);
  PMC_CHECK_MSG(s != nullptr, "core " << id() << " reads "
                                      << rt_.objs->desc(obj).name
                                      << " outside any entry/exit pair");
  PMC_CHECK_MSG(off + n <= s->desc->size, "read past end of " << s->desc->name);
  sim::Core::Deferred defer(core_);
  core_.read_block(s->data_addr + off, out, n, s->cls);
}

void SimEnv::write(ObjId obj, uint32_t off, const void* data, size_t n) {
  Section* s = find(obj);
  PMC_CHECK_MSG(s != nullptr && s->exclusive,
                "core " << id() << " writes " << rt_.objs->desc(obj).name
                        << " without exclusive access");
  PMC_CHECK_MSG(off + n <= s->desc->size,
                "write past end of " << s->desc->name);
  s->dirty = true;
  sim::Core::Deferred defer(core_);
  core_.write_block(s->data_addr + off, data, n, s->cls);
}

void SimEnv::finish() const {
  PMC_CHECK_MSG(num_open_ == 0, "core " << id() << " finished with "
                                        << num_open_ << " open section(s)");
}

}  // namespace pmc::rt

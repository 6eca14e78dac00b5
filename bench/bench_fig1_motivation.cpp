// Regenerates paper Fig. 1: "A Sequentially Consistent correct program,
// which breaks on an architecture with two memories".
//
// The flag travels over the fast path (NoC write into the receiver's local
// memory) while the payload takes the slow one (posted SDRAM write); polling
// the flag therefore overtakes the data and the receiver reads stale X —
// unless the program is annotated, in which case the entry_x(X) pulls the
// released version and the read is always 42.
//
// Flags: --delay-sweep prints stale/fresh over a sweep of extra delays.
#include <cstdio>

#include "bench/bench_common.h"
#include "runtime/program.h"
#include "sim/machine.h"

namespace {

using namespace pmc;
using namespace pmc::bench;

/// The raw (unannotated) program of Fig. 1 on the two-memory machine.
/// Returns the value process 2 printed.
uint32_t run_raw(uint32_t reader_extra_delay) {
  sim::MachineConfig cfg = sim::MachineConfig::fig1_twomem();
  cfg.max_cycles = 10'000'000;
  sim::Machine m(cfg);
  const sim::Addr x = sim::kSdramBase;  // "mem X", latency 10
  uint32_t printed = 0;
  m.run([&](sim::Core& c) {
    const sim::Addr flag = m.lm_base(1);  // "mem flag", latency 1
    if (c.id() == 0) {
      c.store_u32(x, 42, sim::MemClass::kSharedData);  // 1: X = 42
      const uint32_t one = 1;
      c.remote_write(1, flag, &one, 4);                // 2: flag = 1
    } else {
      // 3-4: while(flag != 1) sleep();
      c.poll_u32(flag, sim::MemClass::kLocal,
                 [](uint32_t v) { return v == 1; });
      if (reader_extra_delay > 0) c.idle(reader_extra_delay);
      printed = c.load_u32(x, sim::MemClass::kSharedData);  // 5: print(X)
    }
  });
  return printed;
}

/// The annotated (Fig. 6) version on the same machine, via the PMC runtime.
uint32_t run_annotated() {
  rt::ProgramOptions o;
  o.target = rt::Target::kNoCC;
  o.cores = 2;
  o.machine = sim::MachineConfig::fig1_twomem();
  o.machine.lm_bytes = 64 * 1024;
  o.machine.max_cycles = 10'000'000;
  o.lock_capacity = 8;
  rt::Program prog(o);
  const rt::ObjId x = prog.create_typed<uint32_t>(0, rt::Placement::kSdram, "X");
  const rt::ObjId f = prog.create_typed<uint32_t>(0, rt::Placement::kSdram, "f");
  prog.run([&](rt::Env& env) {
    if (env.id() == 0) {
      env.entry_x(x);
      env.st<uint32_t>(x, 0, 42);
      env.fence();
      env.exit_x(x);
      env.entry_x(f);
      env.st<uint32_t>(f, 0, 1);
      env.flush(f);
      env.exit_x(f);
    } else {
      uint32_t poll = 0;
      do {
        env.entry_ro(f);
        poll = env.ld<uint32_t>(f);
        env.exit_ro(f);
      } while (poll != 1);
      env.fence();
      env.entry_x(x);
      // print(X) — with the acquire, only 42 is possible.
      env.exit_x(x);
    }
  });
  prog.require_valid();
  return prog.result<uint32_t>(x);
}

}  // namespace

int main(int argc, char** argv) {
  if (!known_flags_only(argc, argv, {"delay-sweep", "json", "json="})) {
    return 2;
  }
  std::printf("== Fig. 1: the motivating example on a two-memory machine ==\n\n");
  const uint32_t raw = run_raw(0);
  std::printf("unannotated program: process 2 printed X = %u  %s\n", raw,
              raw == 42 ? "(fresh)" : "(STALE — the bug of Fig. 1)");
  if (flag_set(argc, argv, "delay-sweep")) {
    std::printf("\nextra reader delay -> printed value (write latency race):\n");
    for (uint32_t d = 0; d <= 64; d += 8) {
      std::printf("  +%2u cycles: X = %u\n", d, run_raw(d));
    }
  }
  const uint32_t fixed = run_annotated();
  std::printf("annotated (Fig. 6) program: process 2 read X = %u\n", fixed);
  const bool reproduced = raw != 42 && fixed == 42;
  std::printf("\nresult: %s\n",
              reproduced
                  ? "reproduced — the raw program breaks, PMC annotations fix it"
                  : "UNEXPECTED (check timing configuration)");
  JsonReport json("fig1_motivation");
  json.add("raw_printed", static_cast<uint64_t>(raw));
  json.add("annotated_printed", static_cast<uint64_t>(fixed));
  json.add("reproduced", static_cast<uint64_t>(reproduced ? 1 : 0));
  if (!json.maybe_write(argc, argv)) return 1;
  return reproduced ? 0 : 1;
}

// Case study §VI-B / Fig. 9: the multiple-reader multiple-writer FIFO on the
// software-managed distributed shared memory architecture.
//
// The paper reports no absolute numbers for this case study; the claims the
// harness checks and quantifies are (1) the FIFO "behaves also correctly on
// all of the other architectures", and (2) on DSM "the read and write
// pointers are only polled from local memory, which is fast and does not
// influence the execution of other processors". The throughput series makes
// the local-polling advantage visible against SWCC/no-CC, and a payload
// sweep shows where the crossover lies.
//
// Flags: --items=N (default 96), --readers=N (default 2).
#include <cstdio>
#include <vector>

#include "apps/mfifo.h"
#include "bench/bench_common.h"
#include "util/table.h"

namespace {

using namespace pmc;
using namespace pmc::bench;
using namespace pmc::apps;

struct FifoRun {
  uint64_t makespan = 0;
  uint64_t cycles_per_item = 0;
  uint64_t sdram_sync_stalls = 0;  // reader-side SDRAM traffic
  uint64_t reader_sdram_reads = 0;
};

FifoRun run_fifo(rt::Target target, int readers, int writers, uint32_t items,
                 uint32_t payload_bytes, uint32_t depth) {
  rt::ProgramOptions o;
  o.target = target;
  o.cores = readers + writers;
  o.machine = sim::MachineConfig::ml605(o.cores);
  o.machine.lm_bytes = 256 * 1024;
  o.machine.max_cycles = UINT64_C(20'000'000'000);
  o.validate = false;
  o.lock_capacity = 256;
  rt::Program prog(o);
  MFifo fifo(prog, payload_bytes, depth, readers);
  std::vector<uint8_t> payload(payload_bytes, 0xa5);
  prog.run([&](rt::Env& env) {
    if (env.id() < writers) {
      const uint32_t mine = items / static_cast<uint32_t>(writers);
      for (uint32_t i = 0; i < mine; ++i) {
        fifo.push(env, payload.data());
        env.compute(40);  // produce the next element
      }
    } else {
      const int me = env.id() - writers;
      std::vector<uint8_t> sink(payload_bytes);
      const uint32_t total =
          items / static_cast<uint32_t>(writers) * static_cast<uint32_t>(writers);
      for (uint32_t i = 0; i < total; ++i) {
        fifo.pop(env, me, sink.data());
        env.compute(40);  // consume
      }
    }
  });
  FifoRun r;
  for (int c = 0; c < o.cores; ++c) {
    r.makespan = std::max(r.makespan, prog.machine()->stats(c).cycles_total);
  }
  r.cycles_per_item = r.makespan / items;
  for (int c = writers; c < o.cores; ++c) {
    // Data-path SDRAM stalls only: lock arbitration (atomic unit) is
    // reported by the lock ablation bench instead.
    r.sdram_sync_stalls += prog.machine()->stats(c).stall_shared_read;
  }
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  if (!known_flags_only(argc, argv, {"items=", "readers=", "json", "json="})) {
    return 2;
  }
  const uint32_t items =
      static_cast<uint32_t>(flag_int(argc, argv, "items", 96));
  const int readers = static_cast<int>(flag_int(argc, argv, "readers", 2));

  std::printf("== Fig. 9 case study: multi-reader/multi-writer FIFO ==\n\n");

  JsonReport json("fifo_dsm");
  json.add("items", static_cast<uint64_t>(items));
  json.add("readers", readers);

  util::Table t1;
  t1.add_row({"back-end", "cycles/item", "reader SDRAM data-stall cycles"});
  for (rt::Target target :
       {rt::Target::kDSM, rt::Target::kSWCC, rt::Target::kNoCC}) {
    const FifoRun r = run_fifo(target, readers, /*writers=*/2, items,
                               /*payload=*/32, /*depth=*/8);
    t1.add_row({rt::to_string(target), fmt_u64(r.cycles_per_item),
                fmt_u64(r.sdram_sync_stalls)});
    const std::string slug = rt::to_string(target);
    json.add(slug + "_cycles_per_item", r.cycles_per_item);
    json.add(slug + "_reader_sdram_stalls", r.sdram_sync_stalls);
  }
  std::printf("%u items, 2 writers, %d readers, 32 B payload, depth 8:\n%s\n",
              items, readers, t1.render().c_str());

  util::Table t2;
  t2.add_row({"payload", "DSM cyc/item", "SWCC cyc/item", "DSM/SWCC"});
  for (uint32_t payload : {4u, 16u, 64u, 256u}) {
    const FifoRun dsm = run_fifo(rt::Target::kDSM, readers, 2, items, payload, 8);
    const FifoRun swcc =
        run_fifo(rt::Target::kSWCC, readers, 2, items, payload, 8);
    char ratio[32];
    std::snprintf(ratio, sizeof ratio, "%.2f",
                  static_cast<double>(dsm.cycles_per_item) /
                      static_cast<double>(swcc.cycles_per_item));
    t2.add_row({fmt_u64(payload) + " B", fmt_u64(dsm.cycles_per_item),
                fmt_u64(swcc.cycles_per_item), ratio});
  }
  std::printf("payload sweep (smaller is better):\n%s\n", t2.render().c_str());

  util::Table t3;
  t3.add_row({"readers", "DSM cyc/item", "SWCC cyc/item"});
  for (int r : {1, 2, 4}) {
    const FifoRun dsm = run_fifo(rt::Target::kDSM, r, 2, items, 32, 8);
    const FifoRun swcc = run_fifo(rt::Target::kSWCC, r, 2, items, 32, 8);
    t3.add_row({fmt_u64(static_cast<uint64_t>(r)),
                fmt_u64(dsm.cycles_per_item), fmt_u64(swcc.cycles_per_item)});
  }
  std::printf("reader sweep (broadcast FIFO):\n%s\n", t3.render().c_str());
  std::printf("expected shape: DSM readers poll local memory (near-zero "
              "reader SDRAM stalls);\nno-CC pays uncached SDRAM for every "
              "poll and copy.\n");
  if (!json.maybe_write(argc, argv)) return 1;
  return 0;
}

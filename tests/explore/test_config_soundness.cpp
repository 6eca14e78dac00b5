// Config-driven machines through the model checker (DESIGN.md §12).
//
// Two guard rails for the machine-description tentpole:
//   1. Byte-equality — a LitmusTarget with the default (empty) description
//      must produce the same CheckReport text as one with no description
//      at all, and the totals on the default shape must not move. The
//      contention model must be invisible until a config turns it on.
//   2. Soundness — with the mesh NoC model on, timing changes but the
//      memory model doesn't: clean litmus tests stay clean on every
//      back-end the sweep covers.
#include <string>

#include <gtest/gtest.h>

#include "explore/check.h"
#include "explore/litmus_driver.h"
#include "model/litmus_library.h"
#include "sim/machine.h"

namespace pmc::explore {
namespace {

SessionOptions bounds() {
  SessionOptions opts;
  opts.explore.preemption_bound = 2;
  opts.explore.horizon = 12;
  return opts;
}

sim::MachineConfig mesh_config() {
  // A scaled-machine description in miniature: narrow phits + shallow
  // buffers so contention actually prices in, on the litmus core counts.
  return sim::MachineConfig::from_string(R"(
[machine]
lm_bytes = 32k
sdram_bytes = 256k
[timing]
noc_per_word = 4
[noc]
model = mesh
buffer_words = 2
)");
}

TEST(ConfigSoundness, EmptyDescriptionKeepsReportsByteIdentical) {
  // from_string("") is the ml605 preset — but the LitmusTarget default
  // path also tweaks lm/sdram sizes, so spell those out. This pins the
  // contract that a config-driven target with default-equivalent contents
  // reports byte-identically to the hardcoded default.
  sim::MachineConfig dflt = sim::MachineConfig::from_string(
      "[machine]\nlm_bytes = 32k\nsdram_bytes = 256k\n");
  const CheckSession session(bounds());
  for (const rt::Target t : {rt::Target::kSWCC, rt::Target::kDSM}) {
    const LitmusTarget plain(model::litmus::fig4_exclusive(), t);
    const LitmusTarget described(model::litmus::fig4_exclusive(), t, {},
                                 dflt);
    EXPECT_EQ(session.check(described).to_text(),
              session.check(plain).to_text())
        << rt::to_string(t);
  }
}

TEST(ConfigSoundness, TotalsUnchangedOnDefaultShape) {
  // The totals guard: a timing perturbation from the NoC/port changes
  // would show up here as moved explored/class counts on the *default*
  // machine.
  const LitmusTarget target(model::litmus::fig4_exclusive(),
                            rt::Target::kSWCC);
  const auto full = CheckSession(bounds()).explore(target);
  // Pinned totals from the pre-contention-model tree (the seed baseline).
  EXPECT_EQ(full.explored, 79u);
  EXPECT_EQ(full.distinct_traces, 2u);
  EXPECT_EQ(full.failing, 0u);
}

TEST(ConfigSoundness, MeshModelKeepsCleanTestsClean) {
  // Contention delays packets; it must never un-order a channel or lose a
  // write. Every annotatable litmus test stays failure-free under the
  // mesh model across the interleaving sweep, on a cached back-end and on
  // one that moves data over the NoC.
  const CheckSession session(bounds());
  for (const rt::Target t : {rt::Target::kSWCC, rt::Target::kDSM}) {
    for (const auto& test : annotatable_tests()) {
      const LitmusTarget target(test, t, {}, mesh_config());
      const auto rep = session.check(target);
      EXPECT_TRUE(rep.ok) << target.name() << ": " << rep.to_text();
    }
  }
}

TEST(ConfigSoundness, DescribedMachineChangesTimingNotResults) {
  // Same litmus target, default vs mesh-contended machine: the outcome
  // verdict (ok, failing count) agrees even though cycle timing differs.
  const CheckSession session(bounds());
  const LitmusTarget plain(model::litmus::wrc_locked(), rt::Target::kSPM);
  const LitmusTarget described(model::litmus::wrc_locked(), rt::Target::kSPM,
                               {}, mesh_config());
  const auto a = session.check(plain);
  const auto b = session.check(described);
  EXPECT_EQ(a.ok, b.ok);
  EXPECT_EQ(a.failing, b.failing);
}

}  // namespace
}  // namespace pmc::explore

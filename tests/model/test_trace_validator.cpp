// TraceValidator: the model as an oracle over recorded operation streams.
#include "model/trace.h"

#include <gtest/gtest.h>

namespace pmc::model {
namespace {

using E = TraceEvent;

// Locations: 0 = X, 1 = f.
std::vector<E> annotated_mp_prefix() {
  return {
      E::acquire(0, 0), E::write(0, 0, 42), E::fence(0), E::release(0, 0),
      E::acquire(0, 1), E::write(0, 1, 1),  E::release(0, 1),
      E::read(1, 1, 1), E::fence(1),        E::acquire(1, 0),
  };
}

TEST(TraceValidator, AcceptsCorrectMessagePassing) {
  TraceValidator v(2, 2, {0, 0});
  auto trace = annotated_mp_prefix();
  trace.push_back(E::read(1, 0, 42));
  trace.push_back(E::release(1, 0));
  v.on_events(trace);
  EXPECT_TRUE(v.ok()) << v.first_violation();
  EXPECT_EQ(v.num_events(), trace.size());
}

TEST(TraceValidator, FlagsStaleReadAfterAcquire) {
  // After acquiring X, the only legal value is 42; a back-end delivering the
  // stale 0 (e.g. a missing cache invalidation) is caught.
  TraceValidator v(2, 2, {0, 0});
  auto trace = annotated_mp_prefix();
  trace.push_back(E::read(1, 0, 0));
  v.on_events(trace);
  ASSERT_FALSE(v.ok());
  EXPECT_NE(v.first_violation().find("no legal write"), std::string::npos);
}

TEST(TraceValidator, AllowsStaleReadWithoutAcquire) {
  // Without the acquire, PMC permits the stale value — the validator must
  // not be stricter than the model.
  TraceValidator v(2, 2, {0, 0});
  v.on_events({
      E::acquire(0, 0), E::write(0, 0, 42), E::release(0, 0),
      E::read(1, 0, 0),  // stale but legal: no synchronization chain
  });
  EXPECT_TRUE(v.ok()) << v.first_violation();
}

TEST(TraceValidator, FlagsNonMonotonicReads) {
  TraceValidator v(2, 1, {0});
  v.on_events({
      E::write(0, 0, 1),
      E::read(1, 0, 1),  // observes the new value
      E::read(1, 0, 0),  // ...then the old one: forbidden
  });
  ASSERT_FALSE(v.ok());
}

TEST(TraceValidator, FlagsWriteWriteRace) {
  TraceValidator v(2, 1, {0});
  v.on_events({E::write(0, 0, 1), E::write(1, 0, 2)});
  ASSERT_FALSE(v.ok());
  EXPECT_NE(v.first_violation().find("race"), std::string::npos);
}

TEST(TraceValidator, AcceptsLockedWriterChain) {
  TraceValidator v(3, 1, {0});
  std::vector<E> trace;
  for (ProcId p = 0; p < 3; ++p) {
    trace.push_back(E::acquire(p, 0));
    trace.push_back(E::write(p, 0, 10 + static_cast<uint64_t>(p)));
    trace.push_back(E::release(p, 0));
  }
  trace.push_back(E::acquire(0, 0));
  trace.push_back(E::read(0, 0, 12));
  trace.push_back(E::release(0, 0));
  v.on_events(trace);
  EXPECT_TRUE(v.ok()) << v.first_violation();
}

TEST(TraceValidator, FlagsLostUpdate) {
  // Reader inside the critical section must see the latest locked write;
  // seeing the first one is a protocol bug.
  TraceValidator v(2, 1, {0});
  v.on_events({
      E::acquire(0, 0), E::write(0, 0, 1), E::release(0, 0),
      E::acquire(1, 0), E::write(1, 0, 2), E::release(1, 0),
      E::acquire(0, 0), E::read(0, 0, 1),
  });
  ASSERT_FALSE(v.ok());
}

TEST(TraceValidator, SaturationIsAFailure) {
  // Events past the cap go unchecked, so a saturated validation must not
  // pass.
  TraceValidator::Options opts;
  opts.max_ops = 8;
  TraceValidator v(1, 1, {0}, opts);
  for (int i = 0; i < 50; ++i) {
    v.on_event(E::write(0, 0, static_cast<uint64_t>(i)));
  }
  EXPECT_TRUE(v.saturated());
  EXPECT_FALSE(v.ok());
  EXPECT_TRUE(v.violations().empty());
  EXPECT_EQ(v.first_violation(), "validation saturated after 8 ops");
  EXPECT_EQ(v.num_events(), 50u);
}

TEST(TraceValidator, GreedySourceSelectionPrefersNewest) {
  // Two writes with the same value: committing to the newest keeps later,
  // newer reads legal.
  TraceValidator v(2, 1, {0});
  v.on_events({
      E::acquire(0, 0), E::write(0, 0, 7), E::release(0, 0),
      E::acquire(0, 0), E::write(0, 0, 7), E::release(0, 0),
      E::read(1, 0, 7),
      E::acquire(1, 0), E::read(1, 0, 7), E::release(1, 0),
  });
  EXPECT_TRUE(v.ok()) << v.first_violation();
}

}  // namespace
}  // namespace pmc::model

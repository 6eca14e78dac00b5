// Stateless replay as the test-side soundness reference (DESIGN.md §10).
// Wrapping a target in a ReplayReference hides its StatefulSpec from the
// session, so CheckSession re-executes every schedule from a fresh Program
// instead of forking it from machine snapshots. Shrink candidates are
// wrapped too, so minimization stays on the stateless path. A report of the
// bare target must match its ReplayReference report byte-for-byte.
#pragma once

#include <memory>
#include <string>
#include <utility>

#include "explore/check.h"

namespace pmc::test_support {

class ReplayReference final : public explore::CheckTarget {
 public:
  /// Borrows `inner`: it must outlive the reference.
  explicit ReplayReference(const explore::CheckTarget& inner) : inner_(inner) {}
  explicit ReplayReference(std::unique_ptr<explore::CheckTarget> owned)
      : owned_(std::move(owned)), inner_(*owned_) {}

  std::string name() const override { return inner_.name(); }
  explore::RunOutcome run(explore::ReplayPolicy& policy) const override {
    return inner_.run(policy);
  }
  bool stateful_capable() const override { return false; }
  explore::StatefulSpec make_spec() const override {
    return inner_.make_spec();
  }
  size_t shrink_count() const override { return inner_.shrink_count(); }
  std::unique_ptr<explore::CheckTarget> shrink(size_t i) const override {
    std::unique_ptr<explore::CheckTarget> c = inner_.shrink(i);
    if (c == nullptr) return nullptr;
    return std::make_unique<ReplayReference>(std::move(c));
  }
  std::string describe() const override { return inner_.describe(); }

 private:
  std::unique_ptr<explore::CheckTarget> owned_;
  const explore::CheckTarget& inner_;
};

}  // namespace pmc::test_support

// The closed form of a failed spin's remaining polls (Core::poll_u32).
//
// After a failed read at `read`, the spin idles `backoff` cycles, charges
// `load` cycles for the next load and reads again at
// read + backoff + load; each idle doubles the backoff up to backoff_max.
// A core asleep in a poll uses this to name the read that can first observe
// a write, and on waking adds the polls it slept through to its counters
// exactly as the step loop would have charged them (DESIGN.md §2).
#pragma once

#include <algorithm>
#include <cstdint>

namespace pmc::sim {

struct PollSchedule {
  uint64_t read = 0;         // time of the latest read
  uint64_t backoff = 0;      // idle before the next load
  uint64_t backoff_max = 0;  // cap of the doubling
  uint64_t load = 0;         // cycles charged per load
  uint64_t polls = 0;        // reads taken after the first failed one
  uint64_t idled = 0;        // their idle backoffs, summed

  /// The doubling with its cap: min(2b, max), never past max, also for
  /// starts that are not powers of two.
  static uint64_t next_backoff(uint64_t b, uint64_t max) {
    return std::min(2 * b, max);
  }

  /// True when every step moves the read time forward; a schedule of
  /// zero-cycle steps would poll at one instant forever.
  bool advances() const {
    return load > 0 || (backoff > 0 && backoff_max > 0);
  }

  uint64_t next_read() const { return read + backoff + load; }

  /// Clock advances, hence decision points, of one step in the step loop
  /// (Core::repoll_u32): the idle backoff, then the load.
  static constexpr uint64_t kAdvancesPerStep = 2;
  /// Decision points of the steps taken so far.
  uint64_t advances_taken() const { return polls * kAdvancesPerStep; }

  /// One idle-then-load step of the spin.
  void step() {
    idled += backoff;
    read = next_read();
    ++polls;
    backoff = next_backoff(backoff, backoff_max);
  }

  /// Steps to the first read at or after `t` (none when read >= t).
  /// Requires advances().
  void skip_to(uint64_t t) {
    while (read < t && next_backoff(backoff, backoff_max) != backoff) step();
    if (read >= t) return;
    // The backoff is fixed from here on, so every step adds one stride.
    jump((t - read + stride() - 1) / stride());
  }

  /// Steps to the last read before `limit` (none when next_read() >=
  /// limit). Requires advances() and read < limit.
  void skip_below(uint64_t limit) {
    while (next_read() < limit &&
           next_backoff(backoff, backoff_max) != backoff) {
      step();
    }
    if (next_read() >= limit) return;
    jump((limit - 1 - read) / stride());
  }

  /// Read time of the first read at or after `t`.
  uint64_t first_read_at(uint64_t t) const {
    PollSchedule s = *this;
    s.skip_to(t);
    return s.read;
  }

 private:
  uint64_t stride() const { return backoff + load; }
  void jump(uint64_t k) {
    read += k * stride();
    polls += k;
    idled += k * backoff;
  }
};

}  // namespace pmc::sim

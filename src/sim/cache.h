// Set-associative write-back data cache holding real bytes.
//
// The cache stores actual line contents, so a missing flush produces a
// genuinely stale read and an invalidate of a dirty line genuinely loses the
// store — coherence-protocol bugs are observable, not merely mis-timed.
// Matching the MicroBlaze cache the paper targets, the only maintenance
// operations are invalidate and writeback+invalidate (no reconcile-in-place).
//
// Cache is pure state; the Machine layers timing and SDRAM traffic on top.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/mem_module.h"

namespace pmc::sim {

struct CacheConfig {
  uint32_t size_bytes = 16 * 1024;
  uint32_t line_bytes = 32;
  uint32_t ways = 2;
};

class Cache {
 public:
  explicit Cache(const CacheConfig& cfg);

  uint32_t line_bytes() const { return cfg_.line_bytes; }
  uint32_t num_sets() const { return num_sets_; }
  Addr line_base(Addr a) const { return a & ~static_cast<Addr>(cfg_.line_bytes - 1); }

  /// Line data if present (refreshes LRU), else nullptr.
  uint8_t* lookup(Addr line_addr);
  const uint8_t* peek(Addr line_addr) const;  // no LRU update
  bool dirty(Addr line_addr) const;
  void mark_dirty(Addr line_addr);

  struct Victim {
    bool dirty = false;
    Addr addr = 0;
    std::vector<uint8_t> data;
  };
  /// Allocates a slot for an absent line; fills `victim` when a dirty line
  /// had to be evicted. Returns the (uninitialized) line data pointer.
  uint8_t* install(Addr line_addr, Victim* victim);

  /// Writeback+invalidate: returns true if the line was present; when it was
  /// dirty, its bytes are moved into `dirty_out`.
  bool wbinval_line(Addr line_addr, std::vector<uint8_t>* dirty_out);
  /// Invalidate without writeback — dirty data is *discarded* (the MicroBlaze
  /// semantics the paper notes).
  bool inval_line(Addr line_addr);

  size_t valid_lines() const;
  size_t dirty_lines() const;

  /// Deep copy of cache state: only valid lines carry bytes (data under an
  /// invalid line is unreadable by construction), in line-index order.
  struct Snapshot {
    uint64_t tick = 0;
    std::vector<uint32_t> line_idx;  // indices into lines_
    struct Line {
      Addr tag = 0;
      bool is_dirty = false;
      uint64_t lru = 0;
    };
    std::vector<Line> lines;     // parallel to line_idx
    std::vector<uint8_t> bytes;  // line_idx.size() * line_bytes
  };
  /// Fills `s`, reusing its buffers. Walks only the listed lines, so a
  /// cache that holds few lines snapshots in time proportional to them.
  void snapshot(Snapshot& s) const;
  Snapshot snapshot() const {
    Snapshot s;
    snapshot(s);
    return s;
  }
  /// Invalidates the listed lines, then lays down the saved ones.
  void restore(const Snapshot& s);

 private:
  struct Line {
    Addr tag = 0;  // line-aligned address
    bool valid = false;
    bool is_dirty = false;
    bool listed = false;  // in listed_
    uint64_t lru = 0;
  };

  uint32_t set_of(Addr line_addr) const;
  Line* find(Addr line_addr);
  const Line* find(Addr line_addr) const;
  uint8_t* data_of(const Line* l);

  CacheConfig cfg_;
  uint32_t num_sets_;
  std::vector<Line> lines_;
  std::vector<uint8_t> data_;
  /// Each line that was valid at the last restore() or installed since,
  /// once: a superset of the valid lines, at most one entry per line.
  std::vector<uint32_t> listed_;
  uint64_t tick_ = 0;
};

}  // namespace pmc::sim

// Write-only network-on-chip (paper Fig. 7).
//
// Tiles are arranged in a mesh; a packet from tile s to tile d takes
// base + per_hop·manhattan(s,d) cycles of head latency plus per-word
// serialization, and the destination's write port serializes incoming
// packets. Per (source, destination) channel ordering is FIFO — the paper's
// "no interconnect reorders operations of one processor" — but packets from
// one source to *different* destinations may complete out of order, which
// is exactly the Fig. 1 failure mode.
//
// Two pricing models share that contract (DESIGN.md §12): the flat model
// charges the formula above with no cross-channel coupling, while the mesh
// model routes the packet X-then-Y and arbitrates every directed link on the
// way, with finite per-hop buffering feeding stalls back upstream — the
// contention a real fabric has, visible only at scaled core counts.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "sim/mem_module.h"
#include "sim/timing.h"

namespace pmc::sim {

/// How the NoC prices a packet's traversal (DESIGN.md §12).
enum class NocModel : uint8_t {
  kFlat,  ///< hop-count head latency, per-channel FIFO only (the original)
  kMesh,  ///< per-directed-link X-Y arbitration with finite hop buffers
};

class Noc {
 public:
  Noc(int num_tiles, int mesh_width, const TimingConfig& timing,
      NocModel model = NocModel::kFlat, uint32_t buffer_words = 4);

  int num_tiles() const { return num_tiles_; }
  NocModel model() const { return model_; }
  uint32_t hops(int from, int to) const;

  /// Per-packet contention breakdown, reported to the caller so it can be
  /// traced (kNocQueue) and attributed. Always zero under the flat model's
  /// uncontended link path; port_wait can be nonzero under either model.
  struct Delivery {
    uint64_t arrival = 0;
    uint64_t link_stall = 0;  ///< cycles the head waited for busy links
    uint64_t port_wait = 0;   ///< cycles queued at the destination port
  };

  /// Computes the arrival time of an n-byte write from tile `src` entering
  /// the NoC at `now`, destined for `dst_mod` (the local memory of tile
  /// `dst`). Maintains per-channel FIFO order and destination port
  /// occupancy. The caller posts the payload at the returned arrival time.
  uint64_t deliver(uint64_t now, int src, int dst, MemModule& dst_mod,
                   size_t bytes, Delivery* info = nullptr);

  uint64_t packets_sent() const { return packets_; }
  uint64_t bytes_sent() const { return bytes_; }
  /// Mesh-model contention counters (always zero under kFlat).
  uint64_t link_stall_cycles() const { return link_stall_cycles_; }
  uint64_t stalled_packets() const { return stalled_packets_; }
  const obs::Histogram& link_stall_hist() const { return link_stall_hist_; }

  /// Deep copy of interconnect state. The clock maps are stored sparsely —
  /// (index, value) for every channel/link some packet ever used — so a
  /// snapshot costs O(traffic), not O(tiles²): the dense per-channel map
  /// alone is 512 KiB at 256 tiles, times the snapshot engine's LRU pool.
  struct Snapshot {
    std::vector<std::pair<uint32_t, uint64_t>> channels;  // touched (src,dst)
    std::vector<std::pair<uint32_t, uint64_t>> links;     // touched links
    uint64_t packets = 0;
    uint64_t bytes = 0;
    uint64_t link_stall_cycles = 0;
    uint64_t stalled_packets = 0;
    obs::Histogram link_stall_hist;
  };
  /// Fills `s`, reusing its buffers.
  void snapshot(Snapshot& s) const;
  Snapshot snapshot() const {
    Snapshot s;
    snapshot(s);
    return s;
  }
  /// Restores from *any* later state: channels/links touched since the
  /// snapshot (even on another explored branch) reset to cold first, then
  /// the saved clocks apply — the MemModule dirty-page pattern.
  void restore(const Snapshot& s);

 private:
  int index(int src, int dst) const { return src * num_tiles_ + dst; }
  /// Clock accessors funnel every mutation through the touched lists so
  /// snapshots know which entries moved.
  uint64_t& channel_clock(int idx);
  uint64_t& link_clock(int idx);
  /// Next tile on the X-then-Y route (deterministic, minimal).
  int next_hop(int from, int to) const;
  /// Directed link `from`→`to` for adjacent tiles: 4 outgoing per tile.
  int link_index(int from, int to) const;

  int num_tiles_;
  int mesh_width_;
  TimingConfig timing_;
  NocModel model_;
  uint32_t buffer_words_;

  // Dense live clocks plus touched-entry lists (snapshot sparsity).
  std::vector<uint64_t> channel_last_arrival_;  // per (src, dst)
  std::vector<uint8_t> channel_touched_;
  std::vector<uint32_t> channel_touched_list_;
  std::vector<uint64_t> link_free_;  // per directed link: busy-until clock
  std::vector<uint8_t> link_touched_;
  std::vector<uint32_t> link_touched_list_;

  uint64_t packets_ = 0;
  uint64_t bytes_ = 0;
  uint64_t link_stall_cycles_ = 0;
  uint64_t stalled_packets_ = 0;
  obs::Histogram link_stall_hist_;  // per-packet link stall (mesh model)
};

}  // namespace pmc::sim

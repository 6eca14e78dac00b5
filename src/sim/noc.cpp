#include "sim/noc.h"

#include <algorithm>
#include <cstdlib>

#include "util/check.h"

namespace pmc::sim {

Noc::Noc(int num_tiles, int mesh_width, const TimingConfig& timing,
         NocModel model, uint32_t buffer_words)
    : num_tiles_(num_tiles),
      mesh_width_(mesh_width),
      timing_(timing),
      model_(model),
      buffer_words_(buffer_words) {
  PMC_CHECK(num_tiles >= 1);
  PMC_CHECK(mesh_width >= 1);
  PMC_CHECK_MSG(num_tiles % mesh_width == 0,
                "ragged mesh: " << num_tiles << " tiles cannot fill rows of "
                                << mesh_width
                                << " (pick a width dividing the tile count)");
  PMC_CHECK(buffer_words >= 1);
  const size_t channels = static_cast<size_t>(num_tiles_) * num_tiles_;
  channel_last_arrival_.assign(channels, 0);
  channel_touched_.assign(channels, 0);
  const size_t links = static_cast<size_t>(num_tiles_) * 4;
  link_free_.assign(links, 0);
  link_touched_.assign(links, 0);
}

uint32_t Noc::hops(int from, int to) const {
  PMC_CHECK(from >= 0 && from < num_tiles_ && to >= 0 && to < num_tiles_);
  const int fx = from % mesh_width_, fy = from / mesh_width_;
  const int tx = to % mesh_width_, ty = to / mesh_width_;
  return static_cast<uint32_t>(std::abs(fx - tx) + std::abs(fy - ty));
}

int Noc::next_hop(int from, int to) const {
  const int fx = from % mesh_width_;
  const int tx = to % mesh_width_;
  if (fx != tx) return from + (tx > fx ? 1 : -1);
  return from + (to > from ? mesh_width_ : -mesh_width_);
}

int Noc::link_index(int from, int to) const {
  // 4 outgoing directions per tile: 0 = +x, 1 = -x, 2 = +y, 3 = -y.
  const int d = to - from;
  int dir;
  if (d == 1) {
    dir = 0;
  } else if (d == -1) {
    dir = 1;
  } else if (d == mesh_width_) {
    dir = 2;
  } else {
    dir = 3;
  }
  return from * 4 + dir;
}

uint64_t& Noc::channel_clock(int idx) {
  if (channel_touched_[idx] == 0) {
    channel_touched_[idx] = 1;
    channel_touched_list_.push_back(static_cast<uint32_t>(idx));
  }
  return channel_last_arrival_[idx];
}

uint64_t& Noc::link_clock(int idx) {
  if (link_touched_[idx] == 0) {
    link_touched_[idx] = 1;
    link_touched_list_.push_back(static_cast<uint32_t>(idx));
  }
  return link_free_[idx];
}

uint64_t Noc::deliver(uint64_t now, int src, int dst, MemModule& dst_mod,
                      size_t bytes, Delivery* info) {
  PMC_CHECK(bytes > 0);
  const uint64_t words = (bytes + 3) / 4;
  const uint64_t serial = timing_.noc_per_word * words;
  uint64_t head;
  uint64_t link_stall = 0;
  if (model_ == NocModel::kFlat) {
    head = now + timing_.noc_base +
           static_cast<uint64_t>(timing_.noc_per_hop) * hops(src, dst) +
           serial;
  } else {
    // Wormhole-style X-Y route: the head claims each directed link in turn.
    // A busy link stalls the head; a stall longer than the next hop's input
    // buffer can absorb backs the tail up into the upstream link, keeping it
    // busy for other traffic (finite-buffer backpressure).
    uint64_t t = now + timing_.noc_base;
    const uint64_t buffer_cycles =
        static_cast<uint64_t>(buffer_words_) * timing_.noc_per_word;
    int cur = src;
    int upstream = -1;
    while (cur != dst) {
      const int next = next_hop(cur, dst);
      const int li = link_index(cur, next);
      uint64_t& free_at = link_clock(li);
      const uint64_t start = std::max(t, free_at);
      const uint64_t wait = start - t;
      if (wait > buffer_cycles && upstream >= 0) {
        uint64_t& up = link_clock(upstream);
        up = std::max(up, start - buffer_cycles);
      }
      link_stall += wait;
      // The link stays claimed while the body streams through.
      free_at = start + std::max<uint64_t>(serial, 1);
      t = start + timing_.noc_per_hop;
      upstream = li;
      cur = next;
    }
    head = t + serial;  // tail drains into the destination interface
  }
  // FIFO per channel: a later packet on the same (src, dst) pair never
  // overtakes an earlier one.
  uint64_t& last = channel_clock(index(src, dst));
  uint64_t arrival = std::max(head, last + 1);
  // Destination write port serializes incoming packets.
  const uint64_t port_start = dst_mod.reserve_port(arrival, words);
  const uint64_t port_wait = port_start - arrival;
  arrival = port_start + words;
  last = arrival;
  ++packets_;
  bytes_ += bytes;
  if (model_ == NocModel::kMesh) {
    link_stall_hist_.observe(static_cast<double>(link_stall));
    if (link_stall != 0) {
      link_stall_cycles_ += link_stall;
      ++stalled_packets_;
    }
  }
  if (info != nullptr) {
    info->arrival = arrival;
    info->link_stall = link_stall;
    info->port_wait = port_wait;
  }
  return arrival;
}

void Noc::snapshot(Snapshot& s) const {
  s.channels.clear();
  for (uint32_t i : channel_touched_list_) {
    s.channels.emplace_back(i, channel_last_arrival_[i]);
  }
  s.links.clear();
  for (uint32_t i : link_touched_list_) {
    s.links.emplace_back(i, link_free_[i]);
  }
  s.packets = packets_;
  s.bytes = bytes_;
  s.link_stall_cycles = link_stall_cycles_;
  s.stalled_packets = stalled_packets_;
  s.link_stall_hist = link_stall_hist_;
}

void Noc::restore(const Snapshot& s) {
  for (uint32_t i : channel_touched_list_) {
    channel_last_arrival_[i] = 0;
    channel_touched_[i] = 0;
  }
  channel_touched_list_.clear();
  for (const auto& [i, v] : s.channels) {
    channel_last_arrival_[i] = v;
    channel_touched_[i] = 1;
    channel_touched_list_.push_back(i);
  }
  for (uint32_t i : link_touched_list_) {
    link_free_[i] = 0;
    link_touched_[i] = 0;
  }
  link_touched_list_.clear();
  for (const auto& [i, v] : s.links) {
    link_free_[i] = v;
    link_touched_[i] = 1;
    link_touched_list_.push_back(i);
  }
  packets_ = s.packets;
  bytes_ = s.bytes;
  link_stall_cycles_ = s.link_stall_cycles;
  stalled_packets_ = s.stalled_packets;
  link_stall_hist_ = s.link_stall_hist;
}

}  // namespace pmc::sim

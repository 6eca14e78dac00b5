#include "sim/cache.h"

#include <algorithm>
#include <cstring>

#include "util/check.h"

namespace pmc::sim {

namespace {
bool is_pow2(uint32_t v) { return v != 0 && (v & (v - 1)) == 0; }
}  // namespace

Cache::Cache(const CacheConfig& cfg) : cfg_(cfg) {
  PMC_CHECK(is_pow2(cfg_.line_bytes) && cfg_.line_bytes >= 4);
  PMC_CHECK(cfg_.ways >= 1);
  PMC_CHECK(cfg_.size_bytes % (cfg_.line_bytes * cfg_.ways) == 0);
  num_sets_ = cfg_.size_bytes / (cfg_.line_bytes * cfg_.ways);
  PMC_CHECK(is_pow2(num_sets_));
  lines_.resize(static_cast<size_t>(num_sets_) * cfg_.ways);
  data_.resize(static_cast<size_t>(num_sets_) * cfg_.ways * cfg_.line_bytes);
}

uint32_t Cache::set_of(Addr line_addr) const {
  return (line_addr / cfg_.line_bytes) & (num_sets_ - 1);
}

Cache::Line* Cache::find(Addr line_addr) {
  const uint32_t set = set_of(line_addr);
  for (uint32_t w = 0; w < cfg_.ways; ++w) {
    Line& l = lines_[static_cast<size_t>(set) * cfg_.ways + w];
    if (l.valid && l.tag == line_addr) return &l;
  }
  return nullptr;
}

const Cache::Line* Cache::find(Addr line_addr) const {
  return const_cast<Cache*>(this)->find(line_addr);
}

uint8_t* Cache::data_of(const Line* l) {
  const size_t idx = static_cast<size_t>(l - lines_.data());
  return data_.data() + idx * cfg_.line_bytes;
}

uint8_t* Cache::lookup(Addr line_addr) {
  Line* l = find(line_addr);
  if (!l) return nullptr;
  l->lru = ++tick_;
  return data_of(l);
}

const uint8_t* Cache::peek(Addr line_addr) const {
  const Line* l = find(line_addr);
  return l ? const_cast<Cache*>(this)->data_of(l) : nullptr;
}

bool Cache::dirty(Addr line_addr) const {
  const Line* l = find(line_addr);
  return l != nullptr && l->is_dirty;
}

void Cache::mark_dirty(Addr line_addr) {
  Line* l = find(line_addr);
  PMC_CHECK_MSG(l != nullptr, "mark_dirty on absent line");
  l->is_dirty = true;
}

uint8_t* Cache::install(Addr line_addr, Victim* victim) {
  PMC_CHECK(line_addr % cfg_.line_bytes == 0);
  PMC_CHECK_MSG(find(line_addr) == nullptr, "install of present line");
  const uint32_t set = set_of(line_addr);
  Line* best = nullptr;
  for (uint32_t w = 0; w < cfg_.ways; ++w) {
    Line& l = lines_[static_cast<size_t>(set) * cfg_.ways + w];
    if (!l.valid) {
      best = &l;
      break;
    }
    if (!best || l.lru < best->lru) best = &l;
  }
  if (best->valid && best->is_dirty) {
    victim->dirty = true;
    victim->addr = best->tag;
    victim->data.assign(data_of(best), data_of(best) + cfg_.line_bytes);
  }
  best->tag = line_addr;
  best->valid = true;
  best->is_dirty = false;
  best->lru = ++tick_;
  if (!best->listed) {
    best->listed = true;
    listed_.push_back(static_cast<uint32_t>(best - lines_.data()));
  }
  return data_of(best);
}

bool Cache::wbinval_line(Addr line_addr, std::vector<uint8_t>* dirty_out) {
  Line* l = find(line_addr);
  if (!l) return false;
  if (l->is_dirty) {
    dirty_out->assign(data_of(l), data_of(l) + cfg_.line_bytes);
  } else {
    dirty_out->clear();
  }
  l->valid = false;
  l->is_dirty = false;
  return true;
}

bool Cache::inval_line(Addr line_addr) {
  Line* l = find(line_addr);
  if (!l) return false;
  l->valid = false;
  l->is_dirty = false;  // dirty data is lost — deliberately
  return true;
}

size_t Cache::valid_lines() const {
  size_t n = 0;
  for (const Line& l : lines_) n += l.valid;
  return n;
}

size_t Cache::dirty_lines() const {
  size_t n = 0;
  for (const Line& l : lines_) n += l.valid && l.is_dirty;
  return n;
}

void Cache::snapshot(Snapshot& s) const {
  s.tick = tick_;
  s.line_idx.clear();
  for (const uint32_t i : listed_) {
    if (lines_[i].valid) s.line_idx.push_back(i);
  }
  // Index order: equal states snapshot equal however their lists grew.
  std::sort(s.line_idx.begin(), s.line_idx.end());
  s.lines.resize(s.line_idx.size());
  s.bytes.resize(s.line_idx.size() * cfg_.line_bytes);
  for (size_t k = 0; k < s.line_idx.size(); ++k) {
    const Line& l = lines_[s.line_idx[k]];
    s.lines[k] = {l.tag, l.is_dirty, l.lru};
    std::memcpy(s.bytes.data() + k * cfg_.line_bytes,
                data_.data() + static_cast<size_t>(s.line_idx[k]) *
                                   cfg_.line_bytes,
                cfg_.line_bytes);
  }
}

void Cache::restore(const Snapshot& s) {
  tick_ = s.tick;
  // Every valid line is listed, so this invalidates the whole cache.
  for (const uint32_t i : listed_) {
    Line& l = lines_[i];
    l.valid = false;
    l.is_dirty = false;
    l.listed = false;
  }
  listed_.assign(s.line_idx.begin(), s.line_idx.end());
  for (size_t i = 0; i < s.line_idx.size(); ++i) {
    Line& l = lines_[s.line_idx[i]];
    l.tag = s.lines[i].tag;
    l.valid = true;
    l.is_dirty = s.lines[i].is_dirty;
    l.listed = true;
    l.lru = s.lines[i].lru;
    std::memcpy(data_.data() + static_cast<size_t>(s.line_idx[i]) *
                                   cfg_.line_bytes,
                s.bytes.data() + i * cfg_.line_bytes, cfg_.line_bytes);
  }
}

}  // namespace pmc::sim

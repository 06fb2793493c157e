#include "adapt/ghost_set.h"

#include <stdexcept>
#include <string>

#include "common/annotations.h"

namespace adapt::core {

GhostSet::GhostSet(const GhostConfig& config, std::uint64_t threshold)
    : config_(config), threshold_(threshold) {
  if (config_.segment_blocks == 0 || config_.capacity_segments < 4) {
    throw std::invalid_argument("GhostSet: geometry too small");
  }
  // GC runs as soon as the live count passes capacity_segments, and a write
  // opens at most one segment, so capacity_segments + 1 slab segments are
  // ever live at once; the second spare is headroom.
  const std::uint64_t slab_segments =
      static_cast<std::uint64_t>(config_.capacity_segments) + 2;
  const std::uint64_t slab_slots = slab_segments * config_.segment_blocks;
  if (slab_slots >= kNowhere) {
    throw std::invalid_argument("GhostSet: geometry too large");
  }
  segments_.resize(static_cast<std::size_t>(slab_segments));
  ids_.resize(static_cast<std::size_t>(slab_slots));
}

ADAPT_HOT void GhostSet::write(std::uint32_t id, std::uint64_t interval) {
  ++written_;
  if (id >= loc_.size()) track(id);
  // Invalidate the previous ghost copy, if tracked: its slot stops being
  // valid the moment append() points loc_[id] elsewhere.
  const std::uint32_t old = loc_[id];
  if (old != kNowhere) --segments_[old / config_.segment_blocks].valid;
  append(id, /*hot=*/interval < threshold_);
  maybe_gc();
}

// Outlined from write(): runs only for a never-seen id. Tracker ids are
// dense, so loc_ grows one entry per new sampled block.
ADAPT_HOT void GhostSet::track(std::uint32_t id) {
  // Amortised growth, bounded by the number of distinct sampled blocks; a
  // warmed ghost never reaches this line.
  loc_.resize(static_cast<std::size_t>(id) + 1,  // ADAPT_LINT_ALLOW(hot-alloc)
              kNowhere);
}

void GhostSet::append(std::uint32_t id, bool hot) {
  std::uint32_t& open = open_[hot ? 0 : 1];
  if (open == kNowhere) {
    // Any free slab segment will do: the victim order is by creation key,
    // never by slab position.
    std::uint32_t s = 0;
    while (segments_[s].key != kFree) ++s;
    segments_[s] = Segment{next_segment_key_++, 0, 0};
    open = s;
    ++live_segments_;
  }
  Segment& seg = segments_[open];
  const std::uint32_t slot = open * config_.segment_blocks + seg.fill;
  ids_[slot] = id;
  loc_[id] = slot;
  ++seg.valid;
  if (++seg.fill == config_.segment_blocks) {
    open = kNowhere;  // sealed: force a new open segment next time
  }
}

ADAPT_HOT void GhostSet::maybe_gc() {
  while (live_segments_ > config_.capacity_segments) {
    // Greedy: discard the sealed segment with the fewest valid blocks; ties
    // go to the lowest (oldest) creation key.
    std::uint32_t victim = kNowhere;
    for (std::uint32_t s = 0; s < segments_.size(); ++s) {
      const Segment& seg = segments_[s];
      if (seg.key == kFree || seg.fill != config_.segment_blocks) continue;
      if (victim == kNowhere || seg.valid < segments_[victim].valid ||
          (seg.valid == segments_[victim].valid &&
           seg.key < segments_[victim].key)) {
        victim = s;
      }
    }
    if (victim == kNowhere) return;  // nothing sealed yet
    // Valid blocks leave the (simulated) user groups: in the real system GC
    // would move them to GC-rewritten groups. Discard and count.
    Segment& seg = segments_[victim];
    discarded_ += seg.valid;
    const std::uint32_t first = victim * config_.segment_blocks;
    for (std::uint32_t slot = first; slot < first + seg.fill; ++slot) {
      if (valid_slot(slot)) loc_[ids_[slot]] = kNowhere;
    }
    seg = Segment{};
    --live_segments_;
    ++gc_runs_;
  }
}

void GhostSet::check_invariants(audit::Level level) const {
  if (level == audit::Level::kOff) return;
  const auto fail = [](const char* what) {
    throw std::logic_error(std::string("GhostSet invariant violated: ") +
                           what);
  };
  // Counters tier: the two open segments (if any) must be live, unsealed
  // and strictly below the seal size, and the live count within the slab.
  for (const std::uint32_t open : open_) {
    if (open == kNowhere) continue;
    if (open >= segments_.size() || segments_[open].key == kFree) {
      fail("open index points at no segment");
    }
    if (segments_[open].fill >= config_.segment_blocks) {
      fail("open segment at or past seal size");
    }
  }
  if (live_segments_ > config_.capacity_segments) {
    fail("live segments over capacity after GC");
  }
  if (level != audit::Level::kFull) return;

  // Full tier: re-derive per-segment valid counts from the loc_ back
  // pointers, and check every tracked id points at a live, written slot.
  std::size_t live = 0;
  std::size_t valid_total = 0;
  for (std::uint32_t s = 0; s < segments_.size(); ++s) {
    const Segment& seg = segments_[s];
    if (seg.key == kFree) {
      if (seg.fill != 0 || seg.valid != 0) fail("free segment not reset");
      continue;
    }
    ++live;
    if (seg.key >= next_segment_key_) fail("segment key from the future");
    if (seg.fill < config_.segment_blocks && s != open_[0] && s != open_[1]) {
      fail("unsealed segment that is not open");
    }
    std::uint32_t recount = 0;
    const std::uint32_t first = s * config_.segment_blocks;
    for (std::uint32_t slot = first; slot < first + seg.fill; ++slot) {
      if (ids_[slot] >= loc_.size()) fail("slot names an untracked id");
      if (valid_slot(slot)) ++recount;
    }
    if (recount != seg.valid) fail("valid count drifted from loc_");
    valid_total += recount;
  }
  if (live != live_segments_) fail("live segment count drifted");
  std::size_t located = 0;
  for (std::uint32_t id = 0; id < loc_.size(); ++id) {
    const std::uint32_t slot = loc_[id];
    if (slot == kNowhere) continue;
    ++located;
    if (slot >= ids_.size()) fail("loc_ points outside the slab");
    const Segment& seg = segments_[slot / config_.segment_blocks];
    if (seg.key == kFree || slot % config_.segment_blocks >= seg.fill ||
        ids_[slot] != id) {
      fail("loc_ points at a slot that does not hold the id");
    }
  }
  if (located != valid_total) fail("tracked ids != valid slots");
}

std::size_t GhostSet::memory_usage_bytes() const noexcept {
  // Flat layout, all fixed-width arrays: the slab's id log (4 B per slot)
  // and per-segment header (creation key, fill and valid counts), plus a
  // 4 B slot index per tracked id. Sizes, not capacities, so tests can pin
  // exact byte counts.
  return ids_.size() * sizeof(std::uint32_t) +
         segments_.size() * sizeof(Segment) +
         loc_.size() * sizeof(std::uint32_t);
}

}  // namespace adapt::core

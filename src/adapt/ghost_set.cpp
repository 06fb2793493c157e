#include "adapt/ghost_set.h"

#include <bit>
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
  bucket_words_ = static_cast<std::uint32_t>((slab_segments + 63) / 64);
  const std::size_t buckets =
      static_cast<std::size_t>(config_.segment_blocks) + 1;
  buckets_.assign(buckets * bucket_words_, 0);
  bucket_sizes_.assign(buckets, 0);
}

ADAPT_HOT void GhostSet::write(std::uint32_t id, std::uint64_t interval) {
  ++written_;
  if (id >= loc_.size()) track(id);
  // Invalidate the previous ghost copy, if tracked: its slot stops being
  // valid the moment append() points loc_[id] elsewhere.
  const std::uint32_t old = loc_[id];
  if (old != kNowhere) {
    const std::uint32_t s = old / config_.segment_blocks;
    Segment& seg = segments_[s];
    if (seg.fill == config_.segment_blocks) {
      // Sealed: the segment moves down one valid-count bucket.
      bucket_remove(seg.valid, s);
      bucket_add(seg.valid - 1, s);
    }
    --seg.valid;
  }
  append(id, /*hot=*/interval < threshold_);
  if (live_segments_ > config_.capacity_segments) maybe_gc();
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
    bucket_add(seg.valid, open);  // sealed: now a GC candidate
    open = kNowhere;  // force a new open segment next time
  }
}

ADAPT_HOT void GhostSet::bucket_add(std::uint32_t valid,
                                    std::uint32_t s) noexcept {
  buckets_[valid * bucket_words_ + s / 64] |= std::uint64_t{1} << (s % 64);
  ++bucket_sizes_[valid];
}

ADAPT_HOT void GhostSet::bucket_remove(std::uint32_t valid,
                                       std::uint32_t s) noexcept {
  buckets_[valid * bucket_words_ + s / 64] &= ~(std::uint64_t{1} << (s % 64));
  --bucket_sizes_[valid];
}

// The member of bucket `valid` (non-empty) with the lowest creation key.
ADAPT_HOT std::uint32_t GhostSet::oldest_in_bucket(
    std::uint32_t valid) const noexcept {
  const std::uint64_t* words = buckets_.data() + valid * bucket_words_;
  std::uint32_t victim = kNowhere;
  std::uint64_t victim_key = kFree;
  for (std::uint32_t w = 0; w < bucket_words_; ++w) {
    for (std::uint64_t bits = words[w]; bits != 0; bits &= bits - 1) {
      const std::uint32_t s =
          w * 64 + static_cast<std::uint32_t>(std::countr_zero(bits));
      if (segments_[s].key < victim_key) {
        victim = s;
        victim_key = segments_[s].key;
      }
    }
  }
  return victim;
}

ADAPT_HOT void GhostSet::maybe_gc() {
  while (live_segments_ > config_.capacity_segments) {
    // Greedy: discard the sealed segment with the fewest valid blocks; ties
    // go to the lowest (oldest) creation key.
    std::uint32_t valid = 0;
    while (valid <= config_.segment_blocks && bucket_sizes_[valid] == 0) {
      ++valid;
    }
    if (valid > config_.segment_blocks) return;  // nothing sealed yet
    const std::uint32_t victim = oldest_in_bucket(valid);
    bucket_remove(valid, victim);
    // Valid blocks leave the (simulated) user groups: in the real system GC
    // would move them to GC-rewritten groups. Discard and count.
    Segment& seg = segments_[victim];
    discarded_ += seg.valid;
    const std::uint32_t first = victim * config_.segment_blocks;
    for (std::uint32_t slot = first, left = seg.valid; left != 0; ++slot) {
      if (valid_slot(slot)) {
        loc_[ids_[slot]] = kNowhere;
        --left;
      }
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
  std::size_t bucketed = 0;
  for (const std::uint32_t n : bucket_sizes_) bucketed += n;
  // Every live segment but the (at most two) open ones is sealed.
  const std::size_t open_count = (open_[0] != kNowhere ? 1u : 0u) +
                                 (open_[1] != kNowhere ? 1u : 0u);
  if (bucketed + open_count != live_segments_) {
    fail("bucketed segments != live segments that are not open");
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
      for (std::uint32_t v = 0; v <= config_.segment_blocks; ++v) {
        if (in_bucket(v, s)) fail("free segment in a bucket");
      }
      continue;
    }
    ++live;
    if (seg.key >= next_segment_key_) fail("segment key from the future");
    if (seg.fill < config_.segment_blocks && s != open_[0] && s != open_[1]) {
      fail("unsealed segment that is not open");
    }
    for (std::uint32_t v = 0; v <= config_.segment_blocks; ++v) {
      const bool sealed_here =
          seg.fill == config_.segment_blocks && v == seg.valid;
      if (in_bucket(v, s) != sealed_here) {
        fail("bucket membership differs from the sealed valid count");
      }
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
  // and per-segment header (creation key, fill and valid counts), the
  // valid-count buckets (a bitset over the slab plus a 4 B size each), and
  // a 4 B slot index per tracked id. Sizes, not capacities, so tests can
  // pin exact byte counts.
  return ids_.size() * sizeof(std::uint32_t) +
         segments_.size() * sizeof(Segment) +
         buckets_.size() * sizeof(std::uint64_t) +
         bucket_sizes_.size() * sizeof(std::uint32_t) +
         loc_.size() * sizeof(std::uint32_t);
}

}  // namespace adapt::core

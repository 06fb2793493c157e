// Ghost-set GC simulation (paper §3.2).
//
// A ghost set replays sampled user writes through a miniature two-group
// (hot/cold) log-structured layout with its own hot/cold threshold,
// tracking only block ids. Segment sizes are scaled by the sampling rate.
// GC uses greedy selection but — unlike the real system — *discards*
// victim valid blocks instead of rewriting them, because in the real
// system those blocks would leave the user-written groups for GC-rewritten
// groups. The ratio of discarded to written blocks is the ghost's WA
// proxy; the threshold whose ghost discards least wins.
//
// Layout: blocks are named by the dense ids ReuseDistanceTracker hands out
// (0, 1, 2, ... in first-access order), so everything is a flat array. A
// fixed slab of capacity_segments + 2 segments holds the id logs; loc_[id]
// is the slab slot of id's live copy. A slot is valid iff loc_ points back
// at it, so there is no validity bitmap and invalidation is one decrement.
//
// Victims come from valid-count buckets: a sealed segment sits in the
// bucket for its valid count, a bitset over slab indices, and moves down one
// bucket when it loses a valid block. GC takes the lowest non-empty bucket
// and, within it, the smallest creation key, so the victim is the sealed
// segment with the fewest valid blocks, ties to the oldest — without
// scanning the slab.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "audit/audit.h"

namespace adapt::core {

struct GhostConfig {
  std::uint32_t segment_blocks = 16;   ///< scaled segment size
  std::uint32_t capacity_segments = 64;  ///< user-group capacity budget
};

class GhostSet {
 public:
  GhostSet(const GhostConfig& config, std::uint64_t threshold);

  std::uint64_t threshold() const noexcept { return threshold_; }

  /// Changes the hot/cold threshold and restarts WA accounting (placement
  /// state is kept so the set stays warm).
  void set_threshold(std::uint64_t threshold) noexcept {
    threshold_ = threshold;
    reset_metrics();
  }

  void reset_metrics() noexcept {
    written_ = 0;
    discarded_ = 0;
    gc_runs_ = 0;
  }

  /// Feeds one sampled user write of block `id` (a dense id) with its
  /// (scaled) access interval; kFirstAccess (all-ones) means no history ->
  /// cold.
  void write(std::uint32_t id, std::uint64_t interval);

  std::uint64_t written() const noexcept { return written_; }
  std::uint64_t discarded() const noexcept { return discarded_; }
  std::uint64_t gc_runs() const noexcept { return gc_runs_; }

  /// WA proxy: discarded valid blocks per written block (lower is better).
  double discard_ratio() const noexcept {
    return written_ == 0
               ? 0.0
               : static_cast<double>(discarded_) /
                     static_cast<double>(written_);
  }

  /// "Authentic" once GC has churned enough for the ratio to mean anything.
  bool stable() const noexcept { return gc_runs_ >= 2; }

  /// Live (open or sealed) segments.
  std::size_t segment_count() const noexcept { return live_segments_; }
  std::size_t memory_usage_bytes() const noexcept;

  /// Self-audit; throws std::logic_error on violation. kCounters checks the
  /// open-segment bookkeeping and bucket sizes in O(segment_blocks); kFull
  /// re-derives every segment's valid count and bucket membership and
  /// cross-checks loc_ in O(slab + tracked ids).
  void check_invariants(audit::Level level) const;

 private:
  static constexpr std::uint32_t kNowhere =
      std::numeric_limits<std::uint32_t>::max();
  static constexpr std::uint64_t kFree =
      std::numeric_limits<std::uint64_t>::max();

  struct Segment {
    std::uint64_t key = kFree;  ///< creation order; kFree when unused
    std::uint32_t fill = 0;     ///< slots written (sealed at segment_blocks)
    std::uint32_t valid = 0;    ///< slots whose loc_ entry points back
  };

  void track(std::uint32_t id);
  void append(std::uint32_t id, bool hot);
  void maybe_gc();
  std::uint32_t oldest_in_bucket(std::uint32_t valid) const noexcept;
  void bucket_add(std::uint32_t valid, std::uint32_t s) noexcept;
  void bucket_remove(std::uint32_t valid, std::uint32_t s) noexcept;
  bool in_bucket(std::uint32_t valid, std::uint32_t s) const noexcept {
    return (buckets_[valid * bucket_words_ + s / 64] >> (s % 64) & 1) != 0;
  }
  bool valid_slot(std::uint32_t slot) const noexcept {
    return loc_[ids_[slot]] == slot;
  }

  GhostConfig config_;
  std::uint64_t threshold_;
  std::uint64_t written_ = 0;
  std::uint64_t discarded_ = 0;
  std::uint64_t gc_runs_ = 0;
  std::uint64_t next_segment_key_ = 0;
  std::size_t live_segments_ = 0;
  std::uint32_t open_[2] = {kNowhere, kNowhere};  // hot, cold slab indices
  std::uint32_t bucket_words_ = 0;    // words per bucket bitset
  std::vector<Segment> segments_;     // the slab: capacity_segments + 2
  std::vector<std::uint32_t> ids_;    // segment s owns [s*B, (s+1)*B)
  std::vector<std::uint32_t> loc_;    // id -> slab slot, or kNowhere
  // Bucket v (0..B) is words [v*bucket_words_, (v+1)*bucket_words_): the
  // sealed segments with v valid blocks. bucket_sizes_[v] counts them.
  std::vector<std::uint64_t> buckets_;
  std::vector<std::uint32_t> bucket_sizes_;
};

}  // namespace adapt::core

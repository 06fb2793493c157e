// Spatially sampled access-interval tracking (paper §3.2, "Tracking
// workload characteristics"), after SHARDS [Waldspurger et al., FAST'15].
//
// Blocks are sampled by a uniform hash of their LBA; for each sampled
// access the tracker returns the raw interval since that block's previous
// access, in the caller's clock (user blocks written). That is the unit the
// placement threshold is applied in, and the only interval the ghost sets
// have ever been fed. (An earlier revision also kept SHARDS' unique-block
// distance tree; nothing read its output, so it is gone.)
//
// The tracker also names every sampled block with a dense id (0, 1, 2, ...
// in first-access order) from the same single lookup, so downstream
// consumers — the ghost sets — can index flat arrays instead of hashing the
// LBA again. The ids depend only on the access sequence, never on the
// table's layout.
//
// Layout: an insert-only open-addressing table of {lba, last time, dense
// id} slots, power-of-two sized, fibonacci-hashed and linearly probed, that
// doubles past 3/4 load. Sampled blocks are never forgotten, so there is no
// deletion and memory is bounded by the sampled blocks, not the trace
// length.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/annotations.h"
#include "common/rng.h"
#include "common/types.h"

namespace adapt::core {

/// Uniform spatial sampler: an LBA is in-sample iff hash(lba) < rate * 2^64.
class SpatialSampler {
 public:
  explicit SpatialSampler(double rate, std::uint64_t salt = 0x5bd1e995u);

  double rate() const noexcept { return rate_; }
  bool sampled(Lba lba) const noexcept {
    return mix64(lba ^ salt_) < cutoff_;
  }

 private:
  double rate_;
  std::uint64_t salt_;
  std::uint64_t cutoff_;
};

class ReuseDistanceTracker {
 public:
  static constexpr std::uint64_t kFirstAccess =
      std::numeric_limits<std::uint64_t>::max();

  struct Interval {
    /// Interval in caller clock units (e.g. user blocks written) since
    /// lba's last access, or kFirstAccess. Same unit as the placement
    /// lifespans, so thresholds derived from it apply directly.
    std::uint64_t raw_interval = kFirstAccess;
    /// lba's dense id: the number of distinct blocks tracked before its
    /// first access.
    std::uint32_t id = 0;
  };

  ReuseDistanceTracker();

  /// Records an access at caller time `now` and returns the interval since
  /// lba's previous access (kFirstAccess on no history) plus lba's dense
  /// id. Throws std::length_error past 2^32 - 1 tracked blocks.
  ADAPT_HOT Interval access(Lba lba, std::uint64_t now);

  std::size_t tracked_blocks() const noexcept { return size_; }
  std::size_t slot_count() const noexcept { return slots_.size(); }

  /// The table: slot_count() slots of {8 B lba, 8 B time, 4 B id} padded
  /// to 24 B, i.e. 32-64 B per sampled block between growths.
  std::size_t memory_usage_bytes() const noexcept {
    return slots_.size() * sizeof(Slot);
  }

 private:
  static constexpr std::size_t kInitialSlots = 16;
  static constexpr std::uint32_t kEmpty =
      std::numeric_limits<std::uint32_t>::max();

  struct Slot {
    Lba lba = 0;
    std::uint64_t time = 0;
    std::uint32_t id = kEmpty;  ///< kEmpty marks a free slot
  };

  std::size_t home(Lba lba) const noexcept {
    return static_cast<std::size_t>((lba * 0x9e3779b97f4a7c15ULL) >> shift_);
  }
  void grow();

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
  unsigned shift_ = 0;  ///< 64 - log2(slot count)
};

}  // namespace adapt::core

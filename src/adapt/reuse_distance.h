// Spatially sampled reuse-distance tracking (paper §3.2, "Tracking workload
// characteristics"), after SHARDS [Waldspurger et al., FAST'15].
//
// Blocks are sampled by a uniform hash of their LBA; for each sampled
// access the tracker returns the number of *distinct* sampled blocks
// touched since that block's previous access. Scaling the sampled distance
// by 1/rate estimates the block's real access interval. The "distance
// tree" is a Fenwick tree over the sampled access sequence: the most recent
// position of each live block is marked, so the distance is a suffix count.
//
// The tracker also names every sampled block with a dense id (0, 1, 2, ...
// in first-access order) from the same single hash lookup, so downstream
// consumers — the ghost sets — can index flat arrays instead of hashing the
// LBA again. The ids depend only on the access sequence, never on the hash
// table's layout.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <unordered_map>

#include "common/fenwick.h"
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
    /// Distinct tracked blocks accessed since lba's last access (scale by
    /// 1/rate for the working-set-style distance), or kFirstAccess.
    std::uint64_t unique_distance = kFirstAccess;
    /// Raw interval in caller clock units (e.g. user blocks written) since
    /// lba's last access, or kFirstAccess. Same unit as the placement
    /// lifespans, so thresholds derived from it apply directly.
    std::uint64_t raw_interval = kFirstAccess;
    /// lba's dense id: the number of distinct blocks tracked before its
    /// first access.
    std::uint32_t id = 0;
  };

  /// Records an access at caller time `now` and returns both interval
  /// measures for lba's previous access (kFirstAccess on no history) plus
  /// lba's dense id. Throws std::length_error past 2^32 - 1 tracked blocks.
  Interval access(Lba lba, std::uint64_t now);

  std::size_t tracked_blocks() const noexcept { return last_seen_.size(); }

  /// ~48 bytes per sampled block (paper §4.4: ~44): map entry, dense id and
  /// tree slot.
  std::size_t memory_usage_bytes() const noexcept;

 private:
  struct LastSeen {
    std::uint64_t seq;
    std::uint64_t time;
    std::uint32_t id;
  };

  std::unordered_map<Lba, LastSeen> last_seen_;
  FenwickTree marks_;
  std::uint64_t next_seq_ = 0;
};

}  // namespace adapt::core

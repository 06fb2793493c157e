// Bloom filter and the cascading discriminator used by Proactive Demotion
// Placement (paper §3.4).
//
// Each GC-rewritten group owns one CascadeDiscriminator. During GC, blocks
// that migrate *back into their own group* are inserted (their observed
// lifetime matches that group's segment lifetime). At user-write time the
// score of a group is the number of filters in its cascade that contain the
// LBA; a high score identifies a long-lived cold block that can skip the
// user-written groups entirely. Filters rotate FIFO to bound memory and
// age out stale evidence.
//
// A filter's bit positions for an LBA depend only on the filter's bit
// count, and every filter of one capacity has the same bit count. So a
// BloomProbe — the LBA hashed and reduced once — is tested against every
// filter of every cascade instead of re-hashing per filter.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "audit/audit.h"
#include "common/annotations.h"
#include "common/types.h"

namespace adapt::core {

/// One LBA's bit positions in any filter of `bit_count` bits.
struct BloomProbe {
  static constexpr std::uint32_t kHashes = 7;
  std::uint64_t bit_count = 0;
  std::uint64_t bits[kHashes] = {};
};

class BloomFilter {
 public:
  /// `capacity` expected insertions at roughly 1% false-positive rate.
  explicit BloomFilter(std::uint32_t capacity);

  /// Bit count of every filter built with `capacity`.
  static std::uint64_t bit_count_for(std::uint32_t capacity) noexcept;

  /// Hashes lba once for filters of `bit_count` bits (double hashing: seven
  /// positions h1 + i*h2 mod bit_count).
  ADAPT_HOT static BloomProbe probe(Lba lba, std::uint64_t bit_count) noexcept;
  BloomProbe probe(Lba lba) const noexcept { return probe(lba, bit_count()); }

  void insert(Lba lba) noexcept;
  bool maybe_contains(Lba lba) const noexcept { return contains(probe(lba)); }
  /// `p` must come from probe() with this filter's bit count.
  ADAPT_HOT bool contains(const BloomProbe& p) const noexcept;

  std::uint32_t inserted() const noexcept { return inserted_; }
  std::uint32_t capacity() const noexcept { return capacity_; }
  bool full() const noexcept { return inserted_ >= capacity_; }

  std::uint64_t bit_count() const noexcept { return bits_.size() * 64; }

  std::size_t memory_usage_bytes() const noexcept {
    return bits_.capacity() * sizeof(std::uint64_t);
  }

 private:
  std::uint32_t capacity_;
  std::uint32_t inserted_ = 0;
  std::vector<std::uint64_t> bits_;
};

class CascadeDiscriminator {
 public:
  /// Keeps at most `max_filters` filters of `filter_capacity` LBAs each,
  /// evicting the oldest filter FIFO-style.
  CascadeDiscriminator(std::uint32_t max_filters,
                       std::uint32_t filter_capacity);

  void insert(Lba lba);

  /// lba hashed for this cascade's filters; every cascade with the same
  /// filter capacity accepts the same probe.
  BloomProbe probe(Lba lba) const noexcept {
    return BloomFilter::probe(lba, bit_count_);
  }

  /// Number of filters that (probably) contain the probed LBA — in
  /// [0, max_filters].
  ADAPT_HOT std::uint32_t score(const BloomProbe& p) const noexcept;
  std::uint32_t score(Lba lba) const noexcept { return score(probe(lba)); }

  const std::vector<BloomFilter>& filters() const noexcept {
    return filters_;
  }
  std::size_t filter_count() const noexcept { return filters_.size(); }
  std::uint64_t total_inserted() const noexcept { return total_inserted_; }
  std::size_t memory_usage_bytes() const noexcept;

  /// Self-audit; throws std::logic_error on violation. kCounters checks the
  /// FIFO rotation discipline in O(filters); kFull additionally verifies
  /// every retained filter's geometry. (Bloom bit contents are
  /// probabilistic and have no independently checkable ground truth.)
  void check_invariants(audit::Level level) const;

 private:
  std::uint32_t max_filters_;
  std::uint32_t filter_capacity_;
  std::uint64_t bit_count_;
  std::uint64_t total_inserted_ = 0;
  std::vector<BloomFilter> filters_;  // back = newest
};

}  // namespace adapt::core

// Bloom filters and the re-access bank used by Proactive Demotion Placement
// (paper §3.4).
//
// Each GC-rewritten group owns a FIFO cascade of Bloom filters. During GC,
// blocks that migrate *back into their own group* are inserted into the
// group's newest filter (their observed lifetime matches that group's
// segment lifetime). At user-write time the score of a group is the number
// of its filters that contain the LBA; a high score identifies a long-lived
// cold block that can skip the user-written groups entirely. Filters rotate
// FIFO to bound memory and age out stale evidence.
//
// ReaccessBank stores every filter of every group bit-sliced: one word per
// bit position, where bit g*F + f of the word says whether filter column f
// of group g has that bit. All filters share one capacity and hence one bit
// count, so an LBA's seven positions are the same in every filter: scoring
// every group is an AND of seven words and one popcount per group, and an
// insert ORs one bit into seven words. BloomFilter is the one-filter
// reference the bank is tested against.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "audit/audit.h"
#include "common/annotations.h"
#include "common/rng.h"
#include "common/types.h"

namespace adapt::core {

/// One LBA's bit positions in any filter of `bit_count` bits.
struct BloomProbe {
  static constexpr std::uint32_t kHashes = 7;
  std::uint64_t bit_count = 0;
  std::uint64_t bits[kHashes] = {};
};

/// Exact x mod d for a divisor fixed in advance, without a divide (Lemire,
/// Kaser & Kurz, "Faster remainder by direct computation", 2019): with
/// M = ceil(2^128 / d), x mod d = ((M * x mod 2^128) * d) >> 128 for every
/// 64-bit x. Straight-line code: no data-dependent branch.
class FastMod64 {
 public:
  explicit FastMod64(std::uint64_t d) noexcept
      : d_(d), m_(~U128{0} / d + 1) {}

  std::uint64_t divisor() const noexcept { return d_; }

  ADAPT_HOT std::uint64_t operator()(std::uint64_t x) const noexcept {
    const U128 low = m_ * x;
    // High 64 bits of the 192-bit product low * d.
    const U128 bottom = static_cast<U128>(static_cast<std::uint64_t>(low)) *
                        d_ >> 64;
    const U128 top = (low >> 64) * d_;
    return static_cast<std::uint64_t>((bottom + top) >> 64);
  }

 private:
  using U128 = unsigned __int128;
  std::uint64_t d_;
  U128 m_;
};

class BloomFilter {
 public:
  /// `capacity` expected insertions at roughly 1% false-positive rate.
  explicit BloomFilter(std::uint32_t capacity);

  /// Bit count of every filter built with `capacity`.
  static std::uint64_t bit_count_for(std::uint32_t capacity) noexcept;

  /// The two hashes of lba's double hashing: position i of a filter of
  /// `bit_count` bits is (h1 + i*h2) mod 2^64 mod bit_count.
  static void hashes(Lba lba, std::uint64_t& h1, std::uint64_t& h2) noexcept {
    h1 = mix64(lba);
    h2 = mix64(lba ^ 0x9e3779b97f4a7c15ULL) | 1;
  }

  /// Hashes lba once for filters of `bit_count` bits, reducing with `%`.
  static BloomProbe probe(Lba lba, std::uint64_t bit_count) noexcept;
  BloomProbe probe(Lba lba) const noexcept { return probe(lba, bit_count()); }

  void insert(Lba lba) noexcept;
  bool maybe_contains(Lba lba) const noexcept { return contains(probe(lba)); }
  /// `p` must come from probe() with this filter's bit count.
  bool contains(const BloomProbe& p) const noexcept;

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

class ReaccessBank {
 public:
  /// `groups` FIFO cascades of at most `filters_per_group` filters of
  /// `filter_capacity` LBAs each (both clamped to >= 1). Throws
  /// std::invalid_argument past 64 filter columns in total.
  ReaccessBank(std::uint32_t groups, std::uint32_t filters_per_group,
               std::uint32_t filter_capacity);

  std::uint64_t bit_count() const noexcept { return reduce_.divisor(); }
  /// Bytes per bit-position word: the column count rounded up to 8, 16,
  /// 32 or 64 bits.
  std::uint32_t word_bytes() const noexcept { return word_bytes_; }

  /// lba's seven bit positions, the same as BloomFilter::probe(lba,
  /// bit_count()) but reduced by multiplication.
  ADAPT_HOT BloomProbe probe(Lba lba) const noexcept {
    std::uint64_t h1 = 0;
    std::uint64_t h2 = 0;
    BloomFilter::hashes(lba, h1, h2);
    BloomProbe p;
    p.bit_count = bit_count();
    for (std::uint32_t i = 0; i < BloomProbe::kHashes; ++i) {
      p.bits[i] = reduce_(h1 + i * h2);
    }
    return p;
  }

  /// Inserts lba into the newest filter of `group`, first opening a fresh
  /// one (and retiring the oldest past filters_per_group) when it is full.
  ADAPT_HOT void insert(std::uint32_t group, Lba lba) noexcept;

  /// Bit g*F + f is set iff filter column f of group g (probably) contains
  /// the probed LBA; retired and unopened columns are all-zero.
  ADAPT_HOT std::uint64_t hits(const BloomProbe& p) const noexcept;

  /// Number of `group`'s filters present in a hits() word: the score the
  /// group's cascade gives the probed LBA, in [0, filters_per_group].
  std::uint32_t score(std::uint64_t hits, std::uint32_t group) const noexcept;

  /// Filters currently retained by `group`.
  std::uint32_t filter_count(std::uint32_t group) const noexcept {
    return rings_[group].live;
  }
  std::uint64_t total_inserted(std::uint32_t group) const noexcept {
    return rings_[group].inserted;
  }
  std::size_t memory_usage_bytes() const noexcept {
    return words_.capacity();
  }

  /// Self-audit; throws std::logic_error on violation. kCounters checks
  /// every group's FIFO rotation discipline and insert count in
  /// O(groups); kFull additionally sweeps the bank to check that every
  /// retired or unopened column is all-zero. (The bits of a live column are
  /// probabilistic and have no independently checkable ground truth.)
  void check_invariants(audit::Level level) const;

 private:
  /// A group's filters as a ring over its F columns: the newest is column
  /// `newest`, the live ones are newest, newest-1, ... (mod F).
  struct Ring {
    std::uint32_t newest = 0;
    std::uint32_t live = 0;
    std::uint32_t newest_fill = 0;  ///< insertions into the newest filter
    std::uint64_t opened = 0;       ///< filters opened so far
    std::uint64_t inserted = 0;
  };

  std::uint64_t column_bit(std::uint32_t group,
                           std::uint32_t column) const noexcept {
    return std::uint64_t{1} << (group * per_group_ + column);
  }
  void rotate(std::uint32_t group) noexcept;
  bool column_live(const Ring& r, std::uint32_t column) const noexcept;

  std::uint32_t per_group_;
  std::uint32_t capacity_;
  std::uint32_t word_bytes_;
  std::uint64_t field_mask_;  ///< the low per_group_ bits
  FastMod64 reduce_;
  std::vector<Ring> rings_;
  std::vector<std::uint8_t> words_;  ///< bit_count words of word_bytes_
};

}  // namespace adapt::core

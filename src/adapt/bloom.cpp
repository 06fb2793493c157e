#include "adapt/bloom.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstring>
#include <stdexcept>
#include <string>

namespace adapt::core {
namespace {

// The bank's words are stored as bytes and accessed through memcpy, which
// compiles to one load or store of the word's width.
template <typename W>
W load(const std::uint8_t* words, std::uint64_t i) noexcept {
  W w;
  std::memcpy(&w, words + i * sizeof(W), sizeof(W));
  return w;
}

template <typename W>
void store(std::uint8_t* words, std::uint64_t i, W w) noexcept {
  std::memcpy(words + i * sizeof(W), &w, sizeof(W));
}

template <typename W>
ADAPT_HOT std::uint64_t and_words(const std::uint8_t* words,
                                  const BloomProbe& p) noexcept {
  W acc = load<W>(words, p.bits[0]);
  for (std::uint32_t i = 1; i < BloomProbe::kHashes; ++i) {
    acc = static_cast<W>(acc & load<W>(words, p.bits[i]));
  }
  return acc;
}

template <typename W>
ADAPT_HOT void or_bit(std::uint8_t* words, const BloomProbe& p,
                      std::uint64_t bit) noexcept {
  for (const std::uint64_t i : p.bits) {
    store<W>(words, i, static_cast<W>(load<W>(words, i) | bit));
  }
}

template <typename W>
void clear_bit(std::uint8_t* words, std::uint64_t count,
               std::uint64_t bit) noexcept {
  const auto keep = static_cast<W>(~bit);
  for (std::uint64_t i = 0; i < count; ++i) {
    store<W>(words, i, static_cast<W>(load<W>(words, i) & keep));
  }
}

template <typename W>
std::uint64_t or_all(const std::uint8_t* words, std::uint64_t count) noexcept {
  W acc = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    acc = static_cast<W>(acc | load<W>(words, i));
  }
  return acc;
}

/// Calls fn with a value of the unsigned type `bytes` wide.
template <typename Fn>
ADAPT_HOT auto with_word(std::uint32_t bytes, Fn&& fn) {
  switch (bytes) {
    case 1: return fn(std::uint8_t{});
    case 2: return fn(std::uint16_t{});
    case 4: return fn(std::uint32_t{});
    default: return fn(std::uint64_t{});
  }
}

}  // namespace

BloomFilter::BloomFilter(std::uint32_t capacity)
    : capacity_(std::max<std::uint32_t>(capacity, 1)),
      bits_(bit_count_for(capacity_) / 64, 0) {}

std::uint64_t BloomFilter::bit_count_for(std::uint32_t capacity) noexcept {
  // ~9.6 bits/element and 7 hashes give ~1% FPR.
  const std::uint64_t bits =
      static_cast<std::uint64_t>(std::max<std::uint32_t>(capacity, 1)) * 10;
  return (bits + 63) / 64 * 64;
}

BloomProbe BloomFilter::probe(Lba lba, std::uint64_t bit_count) noexcept {
  std::uint64_t h1 = 0;
  std::uint64_t h2 = 0;
  hashes(lba, h1, h2);
  BloomProbe p;
  p.bit_count = bit_count;
  for (std::uint32_t i = 0; i < BloomProbe::kHashes; ++i) {
    p.bits[i] = (h1 + i * h2) % bit_count;
  }
  return p;
}

void BloomFilter::insert(Lba lba) noexcept {
  const BloomProbe p = probe(lba);
  for (const std::uint64_t bit : p.bits) {
    bits_[bit >> 6] |= std::uint64_t{1} << (bit & 63);
  }
  ++inserted_;
}

bool BloomFilter::contains(const BloomProbe& p) const noexcept {
  assert(p.bit_count == bit_count());
  for (const std::uint64_t bit : p.bits) {
    if ((bits_[bit >> 6] & (std::uint64_t{1} << (bit & 63))) == 0) {
      return false;
    }
  }
  return true;
}

ReaccessBank::ReaccessBank(std::uint32_t groups,
                           std::uint32_t filters_per_group,
                           std::uint32_t filter_capacity)
    : per_group_(std::max<std::uint32_t>(filters_per_group, 1)),
      capacity_(std::max<std::uint32_t>(filter_capacity, 1)),
      word_bytes_(0),
      field_mask_(0),
      reduce_(BloomFilter::bit_count_for(capacity_)),
      rings_(std::max<std::uint32_t>(groups, 1)) {
  const std::uint64_t columns =
      static_cast<std::uint64_t>(rings_.size()) * per_group_;
  if (columns > 64) {
    throw std::invalid_argument(
        "ReaccessBank: " + std::to_string(columns) +
        " filter columns (groups x filters per group) exceed 64");
  }
  word_bytes_ = std::max<std::uint32_t>(
      std::bit_ceil(static_cast<std::uint32_t>(columns)) / 8, 1);
  field_mask_ = per_group_ == 64 ? ~std::uint64_t{0}
                                 : (std::uint64_t{1} << per_group_) - 1;
  // The first rotation opens column 0.
  for (Ring& r : rings_) r.newest = per_group_ - 1;
  words_.assign(bit_count() * word_bytes_, 0);
}

ADAPT_HOT void ReaccessBank::insert(std::uint32_t group, Lba lba) noexcept {
  Ring& r = rings_[group];
  if (r.live == 0 || r.newest_fill >= capacity_) rotate(group);
  const BloomProbe p = probe(lba);
  const std::uint64_t bit = column_bit(group, r.newest);
  with_word(word_bytes_, [&](auto w) {
    or_bit<decltype(w)>(words_.data(), p, bit);
  });
  ++r.newest_fill;
  ++r.inserted;
}

// FIFO rotation: the next column in the ring becomes the newest filter. Once
// all F columns are live, that column is the oldest filter, so it is retired
// by clearing its bit in every word; the sweep reuses the bank in place.
void ReaccessBank::rotate(std::uint32_t group) noexcept {
  Ring& r = rings_[group];
  r.newest = r.newest + 1 == per_group_ ? 0 : r.newest + 1;
  if (r.live == per_group_) {
    const std::uint64_t bit = column_bit(group, r.newest);
    with_word(word_bytes_, [&](auto w) {
      clear_bit<decltype(w)>(words_.data(), bit_count(), bit);
    });
  } else {
    ++r.live;
  }
  r.newest_fill = 0;
  ++r.opened;
}

ADAPT_HOT std::uint64_t ReaccessBank::hits(
    const BloomProbe& p) const noexcept {
  assert(p.bit_count == bit_count());
  return with_word(word_bytes_, [&](auto w) {
    return and_words<decltype(w)>(words_.data(), p);
  });
}

std::uint32_t ReaccessBank::score(std::uint64_t hits,
                                  std::uint32_t group) const noexcept {
  return static_cast<std::uint32_t>(
      std::popcount((hits >> (group * per_group_)) & field_mask_));
}

bool ReaccessBank::column_live(const Ring& r,
                               std::uint32_t column) const noexcept {
  // Distance back from the newest column, around the ring.
  const std::uint32_t age =
      (r.newest + per_group_ - column) % per_group_;
  return age < r.live;
}

void ReaccessBank::check_invariants(audit::Level level) const {
  if (level == audit::Level::kOff) return;
  const auto fail = [](const char* what) {
    throw std::logic_error(std::string("ReaccessBank invariant violated: ") +
                           what);
  };
  if (words_.size() != bit_count() * word_bytes_) fail("bank resized");
  for (const Ring& r : rings_) {
    if (r.newest >= per_group_) fail("newest column outside the group");
    // FIFO discipline: a filter opens only on an insert, every filter but
    // the newest was filled to capacity, and at most F are retained.
    if (r.live != std::min<std::uint64_t>(r.opened, per_group_)) {
      fail("retained filters != min(opened, filters per group)");
    }
    if (r.opened == 0) {
      if (r.inserted != 0 || r.newest_fill != 0) {
        fail("insertions without an open filter");
      }
      continue;
    }
    if (r.newest_fill == 0 || r.newest_fill > capacity_) {
      fail("newest filter fill outside [1, capacity]");
    }
    if (r.inserted != (r.opened - 1) * capacity_ + r.newest_fill) {
      fail("insert count != full filters plus the newest's fill");
    }
  }
  if (level != audit::Level::kFull) return;
  std::uint64_t retired = 0;
  for (std::uint32_t g = 0; g < rings_.size(); ++g) {
    for (std::uint32_t f = 0; f < per_group_; ++f) {
      if (!column_live(rings_[g], f)) retired |= column_bit(g, f);
    }
  }
  const std::uint64_t seen = with_word(word_bytes_, [&](auto w) {
    return or_all<decltype(w)>(words_.data(), bit_count());
  });
  if ((seen & retired) != 0) fail("a retired or unopened column has bits");
}

}  // namespace adapt::core

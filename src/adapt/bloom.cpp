#include "adapt/bloom.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>

#include "common/rng.h"

namespace adapt::core {

BloomFilter::BloomFilter(std::uint32_t capacity)
    : capacity_(std::max<std::uint32_t>(capacity, 1)),
      bits_(bit_count_for(capacity_) / 64, 0) {}

std::uint64_t BloomFilter::bit_count_for(std::uint32_t capacity) noexcept {
  // ~9.6 bits/element and 7 hashes give ~1% FPR.
  const std::uint64_t bits =
      static_cast<std::uint64_t>(std::max<std::uint32_t>(capacity, 1)) * 10;
  return (bits + 63) / 64 * 64;
}

ADAPT_HOT BloomProbe BloomFilter::probe(Lba lba,
                                        std::uint64_t bit_count) noexcept {
  BloomProbe p;
  p.bit_count = bit_count;
  const std::uint64_t h1 = mix64(lba);
  const std::uint64_t h2 = mix64(lba ^ 0x9e3779b97f4a7c15ULL) | 1;
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

ADAPT_HOT bool BloomFilter::contains(const BloomProbe& p) const noexcept {
  assert(p.bit_count == bit_count());
  for (const std::uint64_t bit : p.bits) {
    if ((bits_[bit >> 6] & (std::uint64_t{1} << (bit & 63))) == 0) {
      return false;
    }
  }
  return true;
}

CascadeDiscriminator::CascadeDiscriminator(std::uint32_t max_filters,
                                           std::uint32_t filter_capacity)
    : max_filters_(std::max<std::uint32_t>(max_filters, 1)),
      filter_capacity_(std::max<std::uint32_t>(filter_capacity, 1)),
      bit_count_(BloomFilter::bit_count_for(filter_capacity_)) {
  filters_.reserve(max_filters_);
}

void CascadeDiscriminator::insert(Lba lba) {
  if (filters_.empty() || filters_.back().full()) {
    // FIFO rotation: the oldest filter makes room for a fresh one.
    if (filters_.size() == max_filters_) filters_.erase(filters_.begin());
    filters_.emplace_back(filter_capacity_);
  }
  filters_.back().insert(lba);
  ++total_inserted_;
}

ADAPT_HOT std::uint32_t CascadeDiscriminator::score(
    const BloomProbe& p) const noexcept {
  std::uint32_t s = 0;
  for (const BloomFilter& f : filters_) {
    if (f.contains(p)) ++s;
  }
  return s;
}

void CascadeDiscriminator::check_invariants(audit::Level level) const {
  if (level == audit::Level::kOff) return;
  const auto fail = [](const char* what) {
    throw std::logic_error(
        std::string("CascadeDiscriminator invariant violated: ") + what);
  };
  if (filters_.size() > max_filters_) fail("more filters than the FIFO cap");
  std::uint64_t retained = 0;
  for (std::size_t i = 0; i < filters_.size(); ++i) {
    // FIFO fill discipline: only the newest filter may be partial.
    if (i + 1 < filters_.size() && !filters_[i].full()) {
      fail("partial filter that is not the newest");
    }
    retained += filters_[i].inserted();
  }
  if (retained > total_inserted_) {
    fail("retained insertions exceed the running total");
  }
  if (level != audit::Level::kFull) return;
  for (const BloomFilter& f : filters_) {
    if (f.capacity() != filter_capacity_) fail("filter capacity drifted");
    if (f.bit_count() != bit_count_) fail("filter bit count drifted");
    if (f.memory_usage_bytes() == 0) fail("filter lost its bit array");
  }
}

std::size_t CascadeDiscriminator::memory_usage_bytes() const noexcept {
  std::size_t total = 0;
  for (const BloomFilter& f : filters_) total += f.memory_usage_bytes();
  return total;
}

}  // namespace adapt::core

#include "adapt/reuse_distance.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>

namespace adapt::core {

SpatialSampler::SpatialSampler(double rate, std::uint64_t salt)
    : rate_(std::clamp(rate, 0.0, 1.0)), salt_(salt) {
  if (rate_ >= 1.0) {
    cutoff_ = std::numeric_limits<std::uint64_t>::max();
  } else {
    cutoff_ = static_cast<std::uint64_t>(
        rate_ * std::pow(2.0, 64.0));
  }
}

ReuseDistanceTracker::ReuseDistanceTracker()
    : slots_(kInitialSlots),
      shift_(64 - static_cast<unsigned>(std::countr_zero(kInitialSlots))) {}

ADAPT_HOT ReuseDistanceTracker::Interval ReuseDistanceTracker::access(
    Lba lba, std::uint64_t now) {
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = home(lba);
  while (slots_[i].id != kEmpty) {
    Slot& slot = slots_[i];
    if (slot.lba == lba) {
      const Interval interval{now - slot.time, slot.id};
      slot.time = now;
      return interval;
    }
    i = (i + 1) & mask;
  }
  // First access: claim the free slot the probe ended on, growing first if
  // that would pass 3/4 load.
  if (size_ >= kEmpty) {
    throw std::length_error("ReuseDistanceTracker: dense ids exhausted");
  }
  if ((size_ + 1) * 4 > slots_.size() * 3) {
    grow();
    i = home(lba);
    while (slots_[i].id != kEmpty) i = (i + 1) & (slots_.size() - 1);
  }
  const auto id = static_cast<std::uint32_t>(size_++);
  slots_[i] = Slot{lba, now, id};
  return Interval{kFirstAccess, id};
}

// Outlined from access(): doubles the table, re-placing every entry. Runs
// only on a first access, so a warmed tracker never allocates.
void ReuseDistanceTracker::grow() {
  std::vector<Slot> old(slots_.size() * 2);
  old.swap(slots_);
  --shift_;
  const std::size_t mask = slots_.size() - 1;
  for (const Slot& s : old) {
    if (s.id == kEmpty) continue;
    std::size_t i = home(s.lba);
    while (slots_[i].id != kEmpty) i = (i + 1) & mask;
    slots_[i] = s;
  }
}

}  // namespace adapt::core

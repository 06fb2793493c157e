#include "adapt/reuse_distance.h"

#include <algorithm>
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

ReuseDistanceTracker::Interval ReuseDistanceTracker::access(
    Lba lba, std::uint64_t now) {
  Interval interval;
  const auto it = last_seen_.find(lba);
  if (it != last_seen_.end()) {
    interval.unique_distance =
        static_cast<std::uint64_t>(marks_.suffix_sum_after(it->second.seq));
    interval.raw_interval = now - it->second.time;
    marks_.add(it->second.seq, -1);
    it->second.seq = next_seq_;
    it->second.time = now;
    interval.id = it->second.id;
  } else {
    if (last_seen_.size() >= std::numeric_limits<std::uint32_t>::max()) {
      throw std::length_error("ReuseDistanceTracker: dense ids exhausted");
    }
    interval.id = static_cast<std::uint32_t>(last_seen_.size());
    last_seen_.emplace(lba, LastSeen{next_seq_, now, interval.id});
  }
  marks_.add(next_seq_, +1);
  ++next_seq_;
  return interval;
}

std::size_t ReuseDistanceTracker::memory_usage_bytes() const noexcept {
  // Hash-map node (~36B with bucket overhead) + 4B dense id per block, and
  // an 8B tree slot per access position retained.
  return last_seen_.size() * (36 + sizeof(std::uint32_t)) +
         marks_.size() * sizeof(std::int64_t);
}

}  // namespace adapt::core

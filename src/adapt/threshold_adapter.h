// Density-Aware Threshold Adaptation (paper §3.2).
//
// Sampled user writes feed an interval tracker whose raw write-volume
// intervals drive a bank of ghost sets, each simulating the user-written
// groups under a different hot/cold threshold. Thresholds start on an
// exponentially growing window (segment_size * 2^i); after the first
// adoption the window switches to linear steps (granularity = one segment)
// spanning the neighbours of the previous winner, and falls back to the
// exponential window when the winner sits on the window edge (monotone WA).
// A new configuration is adopted when the write volume since the last
// adoption exceeds 10% of capacity and the ghosts are stable.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "adapt/ghost_set.h"
#include "adapt/reuse_distance.h"
#include "audit/audit.h"
#include "common/annotations.h"
#include "common/types.h"

namespace adapt::core {

struct AdapterConfig {
  /// Spatial sampling rate; <= 0 auto-sizes so that roughly 4096 blocks of
  /// the logical space are sampled (the paper uses 0.001 on multi-TB
  /// volumes; small simulated volumes need a proportionally higher rate to
  /// keep the ghost statistics meaningful).
  double sample_rate = 0.0;
  std::uint32_t num_ghosts = 7;
  std::uint32_t segment_blocks = 1024;  ///< real segment size
  std::uint64_t logical_blocks = 1u << 20;
  double over_provision = 0.25;
  /// Adoption cadence: paper uses 10% of storage capacity.
  double update_fraction = 0.10;
  /// Share of (scaled) capacity budgeted to the simulated user groups.
  /// The real system's GC-rewritten groups hold most of the capacity
  /// (paper Observation 4), so the user groups see much higher GC pressure
  /// than a whole-device simulation would suggest.
  double user_capacity_fraction = 0.20;
};

class ThresholdAdapter {
 public:
  enum class Phase { kExponential, kLinear };

  explicit ThresholdAdapter(const AdapterConfig& config);

  /// Feeds one user write. Returns true if the adopted threshold changed.
  ADAPT_HOT bool on_user_write(Lba lba, VTime now) {
    ++writes_since_adoption_;
    if (sampler_.sampled(lba)) on_sampled_write(lba, now);
    return writes_since_adoption_ >= adoption_volume_ && maybe_adopt();
  }

  /// Currently adopted hot/cold threshold, in (estimated) blocks of access
  /// interval.
  std::uint64_t threshold() const noexcept { return current_threshold_; }

  /// True once at least one adoption happened (before that, callers should
  /// fall back to their cold-start heuristic).
  bool adopted() const noexcept { return adoptions_ > 0; }
  std::uint64_t adoptions() const noexcept { return adoptions_; }

  Phase phase() const noexcept { return phase_; }
  std::vector<std::uint64_t> ghost_thresholds() const;
  const std::vector<GhostSet>& ghosts() const noexcept { return ghosts_; }
  std::uint64_t sampled_writes() const noexcept { return sampled_writes_; }

  std::size_t memory_usage_bytes() const noexcept;

  /// Self-audit; throws std::logic_error on violation. kCounters checks
  /// the ghost-bank shape and sampling counters in O(ghosts); kFull also
  /// runs every ghost's structural audit.
  void check_invariants(audit::Level level) const;

 private:
  void configure_exponential(std::uint64_t center);
  void configure_linear(std::uint64_t lo, std::uint64_t hi);
  void on_sampled_write(Lba lba, VTime now);
  /// Adopts the best ghost's threshold once every ghost is stable; returns
  /// true if the adopted threshold changed.
  bool maybe_adopt();

  AdapterConfig config_;
  SpatialSampler sampler_;
  ReuseDistanceTracker tracker_;
  std::vector<GhostSet> ghosts_;
  Phase phase_ = Phase::kExponential;
  std::uint64_t current_threshold_;
  std::uint64_t writes_since_adoption_ = 0;
  std::uint64_t sampled_writes_ = 0;
  std::uint64_t sampled_since_reconfigure_ = 0;
  std::uint64_t ghost_capacity_blocks_ = 0;
  /// Writes between adoption attempts: update_fraction of the logical
  /// capacity, at least 1.
  std::uint64_t adoption_volume_ = 1;
  std::uint64_t adoptions_ = 0;
};

}  // namespace adapt::core

// Tests for the ADAPT core: Bloom cascade, spatial sampling,
// reuse-distance tracking, ghost sets, threshold adaptation, and the
// AdaptPolicy placement/aggregation logic (including engine integration of
// shadow append / lazy append).
#include <memory>
#include <set>
#include <unordered_map>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "adapt/adapt_policy.h"
#include "adapt/aggregation_wrapper.h"
#include "adapt/bloom.h"
#include "placement/sep_gc.h"
#include "placement/sepbit.h"
#include "adapt/ghost_set.h"
#include "adapt/reuse_distance.h"
#include "adapt/threshold_adapter.h"
#include "audit/audit.h"
#include "common/rng.h"
#include "lss/engine.h"
#include "lss/victim_policy.h"

namespace adapt::core {
namespace {

// ---------------------------------------------------------------------------
// BloomFilter
// ---------------------------------------------------------------------------

TEST(BloomTest, NoFalseNegatives) {
  BloomFilter f(1000);
  for (Lba lba = 0; lba < 1000; ++lba) f.insert(lba * 7);
  for (Lba lba = 0; lba < 1000; ++lba) {
    EXPECT_TRUE(f.maybe_contains(lba * 7));
  }
}

TEST(BloomTest, FalsePositiveRateIsBounded) {
  BloomFilter f(1000);
  for (Lba lba = 0; lba < 1000; ++lba) f.insert(lba);
  int fp = 0;
  const int probes = 10000;
  for (int i = 0; i < probes; ++i) {
    if (f.maybe_contains(1'000'000 + i)) ++fp;
  }
  EXPECT_LT(static_cast<double>(fp) / probes, 0.05);
}

TEST(BloomTest, TracksInsertedCount) {
  BloomFilter f(4);
  EXPECT_FALSE(f.full());
  for (Lba lba = 0; lba < 4; ++lba) f.insert(lba);
  EXPECT_TRUE(f.full());
  EXPECT_EQ(f.inserted(), 4u);
}

TEST(BloomTest, EmptyContainsNothing) {
  BloomFilter f(100);
  int hits = 0;
  for (Lba lba = 0; lba < 1000; ++lba) {
    if (f.maybe_contains(lba)) ++hits;
  }
  EXPECT_EQ(hits, 0);
}

// ---------------------------------------------------------------------------
// CascadeDiscriminator
// ---------------------------------------------------------------------------

TEST(CascadeTest, ScoreCountsFilters) {
  CascadeDiscriminator d(4, 10);
  d.insert(42);
  EXPECT_EQ(d.score(42), 1u);
  // Fill the first filter so a new one opens, then insert again.
  for (Lba lba = 100; lba < 110; ++lba) d.insert(lba);
  d.insert(42);
  EXPECT_GE(d.score(42), 2u);
}

TEST(CascadeTest, FifoEviction) {
  CascadeDiscriminator d(2, 4);
  d.insert(7);  // filter 0
  for (Lba lba = 100; lba < 104; ++lba) d.insert(lba);  // fills 0, opens 1
  for (Lba lba = 200; lba < 204; ++lba) d.insert(lba);  // fills 1, opens 2
  d.check_invariants(audit::Level::kCounters);
  // Max 2 filters: filter 0 (containing 7) must have been evicted by now.
  for (Lba lba = 300; lba < 304; ++lba) d.insert(lba);
  EXPECT_LE(d.filter_count(), 2u);
  EXPECT_EQ(d.score(7), 0u);
  d.check_invariants(audit::Level::kFull);
}

TEST(CascadeTest, ScoreBoundedByMaxFilters) {
  CascadeDiscriminator d(3, 2);
  for (int round = 0; round < 10; ++round) {
    d.insert(5);
    d.insert(static_cast<Lba>(round + 100));
  }
  EXPECT_LE(d.score(5), 3u);
}

TEST(CascadeTest, MemoryIsBounded) {
  CascadeDiscriminator d(2, 100);
  for (Lba lba = 0; lba < 10000; ++lba) {
    d.insert(lba);
    if (lba % 512 == 0) d.check_invariants(audit::Level::kCounters);
  }
  EXPECT_LE(d.filter_count(), 2u);
  EXPECT_LE(d.memory_usage_bytes(), 2u * 100 * 10 / 8 + 64);
  EXPECT_EQ(d.total_inserted(), 10000u);
  d.check_invariants(audit::Level::kFull);
}

TEST(CascadeTest, HashOnceScoreMatchesPerFilterLookups) {
  // AdaptPolicy hashes an LBA once and tests that probe against every
  // filter of all four GC-group cascades. That is only sound because equal
  // capacities give equal bit counts: the shared-probe score must equal
  // the per-filter maybe_contains() count, for LBAs inserted and not.
  Rng rng(137);
  std::vector<CascadeDiscriminator> cascades(4, CascadeDiscriminator(4, 64));
  std::vector<Lba> inserted;
  for (int i = 0; i < 3000; ++i) {
    const Lba lba = rng.below(1u << 20);
    cascades[rng.below(cascades.size())].insert(lba);
    inserted.push_back(lba);
  }
  std::uint64_t hits = 0;
  for (int i = 0; i < 6000; ++i) {
    const Lba lba = i % 2 == 0 ? inserted[rng.below(inserted.size())]
                               : rng.below(1u << 20);
    const BloomProbe probe = cascades.front().probe(lba);
    for (const CascadeDiscriminator& c : cascades) {
      std::uint32_t expected = 0;
      for (const BloomFilter& f : c.filters()) {
        if (f.maybe_contains(lba)) ++expected;
      }
      ASSERT_EQ(c.score(probe), expected) << "lba " << lba;
      ASSERT_EQ(c.score(lba), expected) << "lba " << lba;
      hits += expected;
    }
  }
  EXPECT_GT(hits, 0u);  // the inserted half must actually score
}

// ---------------------------------------------------------------------------
// SpatialSampler
// ---------------------------------------------------------------------------

TEST(SamplerTest, RateZeroSamplesNothing) {
  SpatialSampler s(0.0);
  for (Lba lba = 0; lba < 1000; ++lba) EXPECT_FALSE(s.sampled(lba));
}

TEST(SamplerTest, RateOneSamplesEverything) {
  SpatialSampler s(1.0);
  for (Lba lba = 0; lba < 1000; ++lba) EXPECT_TRUE(s.sampled(lba));
}

TEST(SamplerTest, RateApproximatelyHolds) {
  SpatialSampler s(0.1);
  int hits = 0;
  const int n = 100000;
  for (Lba lba = 0; lba < static_cast<Lba>(n); ++lba) {
    if (s.sampled(lba)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.1, 0.01);
}

TEST(SamplerTest, DecisionIsStablePerLba) {
  SpatialSampler s(0.5);
  for (Lba lba = 0; lba < 100; ++lba) {
    EXPECT_EQ(s.sampled(lba), s.sampled(lba));
  }
}

// ---------------------------------------------------------------------------
// ReuseDistanceTracker
// ---------------------------------------------------------------------------

TEST(ReuseDistanceTest, FirstAccessHasNoHistory) {
  ReuseDistanceTracker t;
  const auto i = t.access(5, 100);
  EXPECT_EQ(i.unique_distance, ReuseDistanceTracker::kFirstAccess);
  EXPECT_EQ(i.raw_interval, ReuseDistanceTracker::kFirstAccess);
}

TEST(ReuseDistanceTest, ImmediateReuseIsZeroDistance) {
  ReuseDistanceTracker t;
  t.access(5, 0);
  const auto i = t.access(5, 3);
  EXPECT_EQ(i.unique_distance, 0u);
  EXPECT_EQ(i.raw_interval, 3u);
}

TEST(ReuseDistanceTest, CountsDistinctIntervening) {
  ReuseDistanceTracker t;
  t.access(1, 0);
  t.access(2, 1);
  t.access(3, 2);
  t.access(2, 3);  // 2 again: only {3} since -> distance 1
  EXPECT_EQ(t.access(2, 4).unique_distance, 0u);
  EXPECT_EQ(t.access(1, 5).unique_distance, 2u);  // {2,3} since t=0
}

TEST(ReuseDistanceTest, RepeatsDontInflateDistance) {
  ReuseDistanceTracker t;
  t.access(1, 0);
  for (int i = 1; i <= 10; ++i) t.access(2, i);  // one distinct block
  EXPECT_EQ(t.access(1, 11).unique_distance, 1u);
}

TEST(ReuseDistanceTest, DenseIdsFollowFirstAccessOrder) {
  ReuseDistanceTracker t;
  EXPECT_EQ(t.access(900, 0).id, 0u);
  EXPECT_EQ(t.access(7, 1).id, 1u);
  EXPECT_EQ(t.access(900, 2).id, 0u);  // repeats keep their id
  EXPECT_EQ(t.access(Lba{1} << 40, 3).id, 2u);
  EXPECT_EQ(t.access(7, 4).id, 1u);
  EXPECT_EQ(t.tracked_blocks(), 3u);
}

TEST(ReuseDistanceTest, MatchesNaiveOnRandomSequence) {
  ReuseDistanceTracker t;
  Rng rng(107);
  std::unordered_map<Lba, std::size_t> last_pos;
  std::vector<Lba> sequence;
  for (int i = 0; i < 3000; ++i) {
    const Lba lba = rng.below(64);
    const auto measured = t.access(lba, i);
    if (last_pos.contains(lba)) {
      std::set<Lba> seen;
      for (std::size_t p = last_pos[lba] + 1; p < sequence.size(); ++p) {
        seen.insert(sequence[p]);
      }
      ASSERT_EQ(measured.unique_distance, seen.size()) << "at step " << i;
    } else {
      ASSERT_EQ(measured.unique_distance,
                ReuseDistanceTracker::kFirstAccess);
    }
    last_pos[lba] = sequence.size();
    sequence.push_back(lba);
  }
  EXPECT_EQ(t.tracked_blocks(), last_pos.size());
}

// ---------------------------------------------------------------------------
// GhostSet
// ---------------------------------------------------------------------------

GhostConfig tiny_ghost() {
  return GhostConfig{.segment_blocks = 4, .capacity_segments = 6};
}

TEST(GhostSetTest, CountsWrites) {
  GhostSet g(tiny_ghost(), 100);
  for (std::uint32_t id = 0; id < 10; ++id) g.write(id, 1000);
  EXPECT_EQ(g.written(), 10u);
}

TEST(GhostSetTest, RejectsBadGeometry) {
  EXPECT_THROW(GhostSet(GhostConfig{.segment_blocks = 0}, 1),
               std::invalid_argument);
  EXPECT_THROW(
      GhostSet(GhostConfig{.segment_blocks = 4, .capacity_segments = 2}, 1),
      std::invalid_argument);
}

TEST(GhostSetTest, OverwritesCreateGarbageNotDiscards) {
  GhostSet g(tiny_ghost(), 100);
  // Hammer a handful of blocks: every segment dies before GC needs to
  // discard anything.
  for (int round = 0; round < 50; ++round) {
    for (std::uint32_t id = 0; id < 4; ++id) g.write(id, 0);
  }
  EXPECT_EQ(g.discarded(), 0u);
}

TEST(GhostSetTest, WriteOnceStreamForcesDiscards) {
  GhostSet g(tiny_ghost(), 100);
  for (std::uint32_t id = 0; id < 200; ++id) {
    g.write(id, 1000000);
    g.check_invariants(audit::Level::kCounters);
  }
  EXPECT_GT(g.discarded(), 0u);
  EXPECT_GT(g.gc_runs(), 0u);
  EXPECT_GT(g.discard_ratio(), 0.0);
  g.check_invariants(audit::Level::kFull);
}

TEST(GhostSetTest, SegmentCountBounded) {
  GhostSet g(tiny_ghost(), 100);
  Rng rng(109);
  for (int i = 0; i < 5000; ++i) {
    g.write(static_cast<std::uint32_t>(rng.below(256)), rng.below(2000));
    if (i % 256 == 0) g.check_invariants(audit::Level::kFull);
    g.check_invariants(audit::Level::kCounters);
  }
  EXPECT_LE(g.segment_count(), tiny_ghost().capacity_segments + 1u);
}

// memory_usage_bytes models the flat layout exactly (fixed-width arrays
// sized, not reserved), so the scenario below pins an exact number:
// tiny_ghost() has 4-block segments and a 6-segment budget, so the slab
// holds 6 + 2 = 8 segments; 20 distinct ids (0-19) are tracked.
//   slab id log:      8 segments * 4 slots * 4 B (uint32 id) = 128
//   segment headers:  8 * 16 B (8 B key + 4 B fill + 4 B valid) = 128
//   loc_ (id -> slot): 20 ids * 4 B                              =  80
//   total: 128 + 128 + 80 = 336
// (The hash-map layout it replaced modelled 1285 B for the same scenario.)
TEST(GhostSetTest, MemoryAccountsForBitmapsAndSegmentOverhead) {
  GhostSet g(tiny_ghost(), 100);
  for (std::uint32_t id = 0; id < 20; ++id) g.write(id, 1000);
  ASSERT_EQ(g.segment_count(), 5u);
  EXPECT_EQ(g.memory_usage_bytes(), 336u);
}

TEST(GhostSetTest, DiscardAccountingIsExact) {
  // Deterministic micro-scenario: segment = 4 blocks, capacity = 4
  // segments. Fill four segments with write-once blocks routed cold, then
  // push one more segment's worth: each overflow seal forces exactly one
  // greedy eviction of a fully-valid sealed segment (4 discards each).
  GhostSet g(GhostConfig{.segment_blocks = 4, .capacity_segments = 4}, 100);
  for (std::uint32_t id = 0; id < 16; ++id) g.write(id, 1u << 20);
  EXPECT_EQ(g.discarded(), 0u);  // exactly at capacity, nothing evicted
  for (std::uint32_t id = 16; id < 20; ++id) g.write(id, 1u << 20);
  EXPECT_EQ(g.discarded(), 4u);
  EXPECT_EQ(g.gc_runs(), 1u);
  g.check_invariants(audit::Level::kFull);
}

TEST(GhostSetTest, InvalidatedBlocksAreNotDiscarded) {
  // Same scenario, but the first segment's blocks are overwritten before
  // the eviction: greedy then reclaims that dead segment for free.
  GhostSet g(GhostConfig{.segment_blocks = 4, .capacity_segments = 4}, 100);
  for (std::uint32_t id = 0; id < 12; ++id) g.write(id, 1u << 20);
  // Overwrites of 0-3 land hot (short interval), invalidating segment 0
  // while the set is still at capacity.
  for (std::uint32_t id = 0; id < 4; ++id) g.write(id, 10);
  // The next cold segment pushes the set over capacity; greedy reclaims
  // the now-dead segment 0 without discarding anything.
  for (std::uint32_t id = 16; id < 20; ++id) g.write(id, 1u << 20);
  EXPECT_EQ(g.discarded(), 0u);
  EXPECT_GE(g.gc_runs(), 1u);
  g.check_invariants(audit::Level::kFull);
}

TEST(GhostSetTest, EqualValidCountTieEvictsTheOlderSegment) {
  // The 17th cold write opens a fifth segment against a 4-segment budget,
  // forcing an eviction among four sealed, fully valid segments: a pure
  // tie, which must take the oldest segment (blocks 0-3).
  GhostSet g(GhostConfig{.segment_blocks = 4, .capacity_segments = 4}, 100);
  for (std::uint32_t id = 0; id < 20; ++id) g.write(id, 1u << 20);
  ASSERT_EQ(g.gc_runs(), 1u);
  ASSERT_EQ(g.discarded(), 4u);
  // Blocks 0-3 left the ghost with their segment, so overwriting them
  // invalidates nothing: the next GC again faces only fully valid sealed
  // segments and discards a whole one. Had a younger segment been evicted,
  // these overwrites would have emptied segment 0 and GC would reclaim it
  // for free.
  for (std::uint32_t id = 0; id < 4; ++id) g.write(id, 10);
  EXPECT_EQ(g.gc_runs(), 2u);
  EXPECT_EQ(g.discarded(), 8u);
  g.check_invariants(audit::Level::kFull);
}

TEST(GhostSetTest, RelabellingIdsLeavesCountersUnchanged) {
  // The ghost's result may depend only on the access sequence, never on
  // the values of the ids (and so on no hash-table layout keyed by them).
  constexpr std::uint32_t kIds = 400;
  std::vector<std::uint32_t> relabel(kIds);
  for (std::uint32_t i = 0; i < kIds; ++i) relabel[i] = i;
  Rng shuffle(131);
  for (std::uint32_t i = kIds - 1; i > 0; --i) {
    std::swap(relabel[i], relabel[shuffle.below(i + 1)]);
  }
  GhostConfig geometry{.segment_blocks = 8, .capacity_segments = 16};
  GhostSet plain(geometry, 300);
  GhostSet relabelled(geometry, 300);
  Rng rng(127);
  for (int i = 0; i < 20000; ++i) {
    const auto id = static_cast<std::uint32_t>(rng.below(kIds));
    const std::uint64_t interval = rng.below(1000);
    plain.write(id, interval);
    relabelled.write(relabel[id], interval);
  }
  ASSERT_GT(plain.gc_runs(), 10u);
  EXPECT_EQ(plain.written(), relabelled.written());
  EXPECT_EQ(plain.discarded(), relabelled.discarded());
  EXPECT_EQ(plain.gc_runs(), relabelled.gc_runs());
}

TEST(GhostSetTest, DifferentThresholdsDifferentPlacements) {
  // The whole point of the ghost bank: thresholds change where blocks go
  // and therefore how much GC discards. Verify the bank actually produces
  // divergent measurements on a mixed workload.
  GhostSet separating(
      GhostConfig{.segment_blocks = 8, .capacity_segments = 16}, 1000);
  GhostSet degenerate(
      GhostConfig{.segment_blocks = 8, .capacity_segments = 16}, 1);
  Rng rng(113);
  std::uint32_t cold = 1000;
  for (int i = 0; i < 4000; ++i) {
    const bool hot = rng.chance(0.7);
    const std::uint32_t id =
        hot ? static_cast<std::uint32_t>(rng.below(32)) : cold++;
    const std::uint64_t interval = hot ? 10 : (1u << 20);
    separating.write(id, interval);
    degenerate.write(id, interval);
  }
  EXPECT_NE(separating.discarded(), degenerate.discarded());
  EXPECT_GT(separating.gc_runs(), 0u);
  EXPECT_GT(degenerate.gc_runs(), 0u);
  separating.check_invariants(audit::Level::kFull);
  degenerate.check_invariants(audit::Level::kFull);
}

TEST(GhostSetTest, SetThresholdResetsMetrics) {
  GhostSet g(tiny_ghost(), 100);
  for (std::uint32_t id = 0; id < 100; ++id) g.write(id, 1000000);
  EXPECT_GT(g.written(), 0u);
  g.set_threshold(200);
  EXPECT_EQ(g.written(), 0u);
  EXPECT_EQ(g.discarded(), 0u);
  EXPECT_EQ(g.threshold(), 200u);
}

// ---------------------------------------------------------------------------
// ThresholdAdapter
// ---------------------------------------------------------------------------

AdapterConfig small_adapter() {
  AdapterConfig c;
  c.sample_rate = 1.0;  // sample everything: deterministic tests
  c.num_ghosts = 5;
  c.segment_blocks = 64;
  c.logical_blocks = 4096;
  c.update_fraction = 0.05;
  return c;
}

TEST(ThresholdAdapterTest, StartsInExponentialPhase) {
  ThresholdAdapter a(small_adapter());
  EXPECT_EQ(a.phase(), ThresholdAdapter::Phase::kExponential);
  const auto thresholds = a.ghost_thresholds();
  for (std::size_t i = 1; i < thresholds.size(); ++i) {
    EXPECT_EQ(thresholds[i], thresholds[i - 1] * 2);
  }
}

TEST(ThresholdAdapterTest, RejectsTooFewGhosts) {
  AdapterConfig c = small_adapter();
  c.num_ghosts = 2;
  EXPECT_THROW(ThresholdAdapter a(c), std::invalid_argument);
}

TEST(ThresholdAdapterTest, AutoSampleRateFromCapacity) {
  AdapterConfig c = small_adapter();
  c.sample_rate = 0.0;
  c.logical_blocks = 1u << 20;
  ThresholdAdapter a(c);
  // Feeding every LBA once, roughly 4096/2^20 of them should be sampled.
  std::uint64_t hits = 0;
  for (Lba lba = 0; lba < (1u << 18); ++lba) {
    a.on_user_write(lba, lba);
    if (a.sampled_writes() > hits) hits = a.sampled_writes();
  }
  EXPECT_NEAR(static_cast<double>(hits), 1024.0, 200.0);
}

TEST(ThresholdAdapterTest, AdoptsAfterEnoughChurn) {
  ThresholdAdapter a(small_adapter());
  Rng rng(127);
  VTime now = 0;
  bool changed = false;
  for (int i = 0; i < 200000 && !changed; ++i) {
    // Mixed workload: hot blocks 0-31 + cold stream.
    const Lba lba = rng.chance(0.6) ? rng.below(32) : 100 + rng.below(4000);
    changed |= a.on_user_write(lba, now++);
    a.check_invariants(audit::Level::kCounters);
    if (i % 8192 == 0) a.check_invariants(audit::Level::kFull);
  }
  EXPECT_TRUE(a.adopted());
  EXPECT_GT(a.threshold(), 0u);
  a.check_invariants(audit::Level::kFull);
}

TEST(ThresholdAdapterTest, RelabellingLbasLeavesEveryGhostUnchanged) {
  // Ghosts see the tracker's dense ids, assigned in first-access order, so
  // any LBA bijection (here a xor, which keeps LBAs inside the volume)
  // must leave every ghost's counters and the adoptions untouched.
  ThresholdAdapter plain(small_adapter());
  ThresholdAdapter relabelled(small_adapter());
  Rng rng(139);
  for (VTime now = 0; now < 60000; ++now) {
    const Lba lba = rng.chance(0.6) ? rng.below(32) : 100 + rng.below(3900);
    plain.on_user_write(lba, now);
    relabelled.on_user_write(lba ^ 0xA5Au, now);
  }
  ASSERT_EQ(plain.sampled_writes(), relabelled.sampled_writes());
  EXPECT_EQ(plain.adoptions(), relabelled.adoptions());
  EXPECT_EQ(plain.threshold(), relabelled.threshold());
  for (std::size_t g = 0; g < plain.ghosts().size(); ++g) {
    const GhostSet& a = plain.ghosts()[g];
    const GhostSet& b = relabelled.ghosts()[g];
    EXPECT_EQ(a.written(), b.written()) << g;
    EXPECT_EQ(a.discarded(), b.discarded()) << g;
    EXPECT_EQ(a.gc_runs(), b.gc_runs()) << g;
  }
  EXPECT_GT(plain.ghosts().front().gc_runs(), 0u);
}

TEST(ThresholdAdapterTest, MemoryGrowsWithTracking) {
  ThresholdAdapter a(small_adapter());
  const std::size_t before = a.memory_usage_bytes();
  for (Lba lba = 0; lba < 1000; ++lba) a.on_user_write(lba, lba);
  EXPECT_GT(a.memory_usage_bytes(), before);
  a.check_invariants(audit::Level::kFull);
}

// ---------------------------------------------------------------------------
// AdaptPolicy — placement logic
// ---------------------------------------------------------------------------

AdaptConfig small_policy() {
  AdaptConfig c;
  c.logical_blocks = 4096;
  c.segment_blocks = 64;
  c.chunk_blocks = 4;
  c.enable_threshold_adaptation = false;  // deterministic threshold
  return c;
}

TEST(AdaptPolicyTest, SixGroupsTwoUser) {
  AdaptPolicy p(small_policy());
  EXPECT_EQ(p.group_count(), 6u);
  EXPECT_TRUE(p.is_user_group(AdaptPolicy::kHotUser));
  EXPECT_TRUE(p.is_user_group(AdaptPolicy::kColdUser));
  for (GroupId g = AdaptPolicy::kFirstGcGroup; g < 6; ++g) {
    EXPECT_FALSE(p.is_user_group(g));
  }
}

TEST(AdaptPolicyTest, FirstWriteIsCold) {
  AdaptPolicy p(small_policy());
  EXPECT_EQ(p.place_user_write(1, 0), AdaptPolicy::kColdUser);
}

TEST(AdaptPolicyTest, ShortLifespanIsHot) {
  AdaptPolicy p(small_policy());
  p.place_user_write(1, 0);
  EXPECT_EQ(p.place_user_write(1, 5), AdaptPolicy::kHotUser);
}

TEST(AdaptPolicyTest, LongLifespanIsCold) {
  AdaptPolicy p(small_policy());
  p.place_user_write(1, 0);
  EXPECT_EQ(p.place_user_write(1, 1u << 22), AdaptPolicy::kColdUser);
}

TEST(AdaptPolicyTest, GcBucketsByAge) {
  AdaptPolicy p(small_policy());
  const auto l = static_cast<VTime>(p.threshold());
  p.place_user_write(1, 0);
  EXPECT_EQ(p.place_gc_rewrite(1, 0, l), 2u);
  EXPECT_EQ(p.place_gc_rewrite(1, 2, 5 * l), 3u);
  EXPECT_EQ(p.place_gc_rewrite(1, 3, 20 * l), 4u);
  EXPECT_EQ(p.place_gc_rewrite(1, 4, 100 * l), 5u);
}

TEST(AdaptPolicyTest, GcNeverPromotesTowardHotterGroups) {
  AdaptPolicy p(small_policy());
  p.place_user_write(1, 1000);
  // Young version age but victim already in the coldest group: stays.
  EXPECT_EQ(p.place_gc_rewrite(1, 5, 1001), 5u);
}

TEST(AdaptPolicyTest, FallbackThresholdTracksHotSegments) {
  AdaptPolicy p(small_policy());
  const double before = p.threshold();
  for (int i = 0; i < 10; ++i) {
    p.note_segment_reclaimed(AdaptPolicy::kHotUser, 0, 100000);
  }
  EXPECT_GT(p.threshold(), before);
}

TEST(AdaptPolicyTest, DemotionRequiresScoreAndLifespan) {
  AdaptConfig c = small_policy();
  c.demotion_score_threshold = 2;
  // One insert per filter so each GC return is a distinct score unit.
  c.bloom_filter_capacity = 1;
  AdaptPolicy p(c);
  const Lba lba = 77;
  p.place_user_write(lba, 0);
  // Earn a score of 2 in GC group 5's cascade.
  const auto far = static_cast<VTime>(p.threshold() * 100);
  p.place_gc_rewrite(lba, 5, far);
  p.place_gc_rewrite(lba, 5, far + 1);
  // Prior lifespan long (>= 4 * threshold) -> demote straight to group 5.
  EXPECT_EQ(p.place_user_write(lba, far + 2), 5u);
  EXPECT_EQ(p.demotions(), 1u);
  // A short prior lifespan must NOT demote, whatever the score.
  EXPECT_EQ(p.place_user_write(lba, far + 3), AdaptPolicy::kHotUser);
  EXPECT_EQ(p.demotions(), 1u);
}

TEST(AdaptPolicyTest, DemotionDisabledByConfig) {
  AdaptConfig c = small_policy();
  c.enable_proactive_demotion = false;
  AdaptPolicy p(c);
  const Lba lba = 77;
  p.place_user_write(lba, 0);
  const auto far = static_cast<VTime>(p.threshold() * 100);
  p.place_gc_rewrite(lba, 5, far);
  p.place_gc_rewrite(lba, 5, far + 1);
  EXPECT_EQ(p.place_user_write(lba, far + 2), AdaptPolicy::kColdUser);
  EXPECT_EQ(p.demotions(), 0u);
}

// ---------------------------------------------------------------------------
// AdaptPolicy — engine integration (shadow / lazy append lifecycle)
// ---------------------------------------------------------------------------

lss::LssConfig engine_config() {
  lss::LssConfig c;
  c.chunk_blocks = 4;
  c.segment_chunks = 2;
  c.logical_blocks = 1024;
  c.over_provision = 0.5;
  c.coalesce_window_us = 100;
  // Per-op counters self-audit inside the engine for every test below.
  c.audit_level = audit::Level::kCounters;
  return c;
}

struct AdaptEngine {
  explicit AdaptEngine(AdaptConfig ac = {}) : policy(make_policy_config(ac)) {
    victim = lss::make_greedy();
    engine = std::make_unique<lss::LssEngine>(engine_config(), policy,
                                              *victim, nullptr, 1);
    engine->set_aggregation_hook(&policy);
  }

  static AdaptConfig make_policy_config(AdaptConfig ac) {
    ac.logical_blocks = engine_config().logical_blocks;
    ac.segment_blocks = engine_config().segment_blocks();
    ac.chunk_blocks = engine_config().chunk_blocks;
    ac.enable_threshold_adaptation = false;
    return ac;
  }

  /// Makes `lba` classify as hot on its next write.
  void heat(Lba lba, TimeUs now) {
    engine->write_block(lba, now);
    engine->write_block(lba, now);
  }

  AdaptPolicy policy;
  std::unique_ptr<lss::VictimPolicy> victim;
  std::unique_ptr<lss::LssEngine> engine;
};

TEST(AdaptEngineTest, DeadlineMergeShadowsHotIntoCold) {
  AdaptEngine f;
  // One hot block pending + one cold block pending, deadlines overlap.
  f.heat(1, 0);              // lba 1 now hot (2 writes, same chunk)
  f.engine->advance_time(200);  // drain those (pad) so state is clean
  f.engine->write_block(1, 1000);   // hot pending
  f.engine->write_block(500, 1010);  // first write -> cold pending
  f.engine->advance_time(1100);      // hot deadline fires first
  // The hot block must now have a live shadow and its original pending.
  EXPECT_TRUE(f.engine->has_live_shadow(1));
  EXPECT_GT(f.engine->metrics().shadow_blocks, 0u);
  EXPECT_GT(f.policy.shadow_decisions(), 0u);
  f.engine->check_invariants();
}

TEST(AdaptEngineTest, ShadowExpiresWhenHotChunkFlushes) {
  AdaptEngine f;
  f.heat(1, 0);
  f.engine->advance_time(200);
  f.engine->write_block(1, 1000);
  f.engine->write_block(500, 1010);
  f.engine->advance_time(1100);
  ASSERT_TRUE(f.engine->has_live_shadow(1));
  // Fill the hot chunk so the lazy original persists.
  f.heat(2, 2000);
  f.heat(3, 2000);
  f.engine->write_block(2, 3000);
  f.engine->write_block(3, 3000);
  f.engine->write_block(2, 3000);
  EXPECT_FALSE(f.engine->has_live_shadow(1));
  f.engine->check_invariants();
}

TEST(AdaptEngineTest, OverwriteKillsShadowToo) {
  AdaptEngine f;
  f.heat(1, 0);
  f.engine->advance_time(200);
  f.engine->write_block(1, 1000);
  f.engine->write_block(500, 1010);
  f.engine->advance_time(1100);
  ASSERT_TRUE(f.engine->has_live_shadow(1));
  f.engine->write_block(1, 1200);  // new version invalidates both copies
  EXPECT_FALSE(f.engine->has_live_shadow(1));
  f.engine->check_invariants();
}

TEST(AdaptEngineTest, NoAggregationWithoutOverlap) {
  AdaptConfig ac;
  AdaptEngine f(ac);
  f.heat(1, 0);
  f.engine->advance_time(200);
  f.engine->write_block(1, 1000);  // hot pending, cold empty
  f.engine->advance_time(1100);
  EXPECT_FALSE(f.engine->has_live_shadow(1));
  EXPECT_GT(f.engine->group_traffic(AdaptPolicy::kHotUser).padding_blocks,
            0u);
}

TEST(AdaptEngineTest, AggregationDisabledByConfig) {
  AdaptConfig ac;
  ac.enable_cross_group_aggregation = false;
  AdaptEngine f(ac);
  f.heat(1, 0);
  f.engine->advance_time(200);
  f.engine->write_block(1, 1000);
  f.engine->write_block(500, 1010);
  f.engine->advance_time(1100);
  EXPECT_EQ(f.engine->metrics().shadow_blocks, 0u);
  EXPECT_FALSE(f.engine->has_live_shadow(1));
}

TEST(AdaptEngineTest, RandomizedWorkloadKeepsInvariantsAndData) {
  AdaptEngine f;
  Rng rng(131);
  std::vector<bool> written(1024, false);
  TimeUs now = 0;
  for (int i = 0; i < 20000; ++i) {
    now += rng.below(150);
    const Lba lba = rng.chance(0.5) ? rng.below(32) : rng.below(1024);
    f.engine->write_block(lba, now);
    written[lba] = true;
    if (i % 2048 == 0) f.engine->check_invariants();
  }
  f.engine->flush_all();
  f.engine->check_invariants();
  for (Lba lba = 0; lba < 1024; ++lba) {
    ASSERT_EQ(f.engine->locate(lba) != lss::kNowhere, written[lba]);
  }
  EXPECT_GE(f.engine->metrics().wa(), 1.0);
}

TEST(AdaptEngineTest, GcOnSegmentWithLiveShadowForcesLazyFlush) {
  AdaptEngine f;
  // Create a live shadow in the cold group.
  f.heat(1, 0);
  f.engine->advance_time(200);
  f.engine->write_block(1, 1000);
  f.engine->write_block(500, 1010);
  f.engine->advance_time(1100);
  ASSERT_TRUE(f.engine->has_live_shadow(1));
  // Seal the cold segment (8 slots) around the shadow with write-once
  // cold blocks while the hot original stays pending.
  Lba cold_lba = 600;
  while (f.engine->group_traffic(core::AdaptPolicy::kColdUser)
             .segments_sealed == 0) {
    f.engine->write_block(cold_lba++, 2000);
    f.engine->advance_time(2000 + 200 * (cold_lba - 600));
    ASSERT_LT(cold_lba, 700u) << "cold segment never sealed";
  }
  if (!f.engine->has_live_shadow(1)) {
    GTEST_SKIP() << "shadow expired while sealing (hot chunk filled)";
  }
  // Force GC until the sealed cold segment (holding the live shadow) is
  // collected: the engine must pad-flush the hot chunk first, expiring the
  // shadow rather than migrating a duplicate.
  for (int i = 0; i < 64 && f.engine->metrics().forced_lazy_flushes == 0;
       ++i) {
    if (!f.engine->gc_step(5000, f.engine->free_segments() + 1)) break;
    f.engine->check_invariants();
  }
  EXPECT_GT(f.engine->metrics().forced_lazy_flushes, 0u);
  EXPECT_FALSE(f.engine->has_live_shadow(1));
  f.engine->check_invariants();
}

// ---------------------------------------------------------------------------
// Aggregation wrapper (extension)
// ---------------------------------------------------------------------------

TEST(AggregationWrapperTest, DelegatesToInnerPolicy) {
  auto inner = std::make_unique<placement::SepBitPolicy>(4096, 64);
  AggregatingPolicy wrapped(std::move(inner), AggregationWrapperConfig{});
  EXPECT_EQ(wrapped.name(), "sepbit+agg");
  EXPECT_EQ(wrapped.group_count(), 6u);
  EXPECT_TRUE(wrapped.is_user_group(0));
  EXPECT_EQ(wrapped.host_group(), 1u);  // SepBIT's cold user group
  EXPECT_EQ(wrapped.place_user_write(1, 0), 1u);  // first write: cold
  wrapped.check_invariants(audit::Level::kFull);
}

TEST(AggregationWrapperTest, RejectsSingleUserGroupPolicies) {
  auto inner = std::make_unique<placement::SepGcPolicy>();
  EXPECT_THROW(
      AggregatingPolicy(std::move(inner), AggregationWrapperConfig{}),
      std::invalid_argument);
}

TEST(AggregationWrapperTest, RejectsNullInner) {
  EXPECT_THROW(AggregatingPolicy(nullptr, AggregationWrapperConfig{}),
               std::invalid_argument);
}

TEST(AggregationWrapperTest, ShadowsThroughTheEngine) {
  auto inner = std::make_unique<placement::SepBitPolicy>(
      engine_config().logical_blocks, engine_config().segment_blocks());
  AggregationWrapperConfig wc;
  wc.chunk_blocks = engine_config().chunk_blocks;
  AggregatingPolicy wrapped(std::move(inner), wc);
  auto victim = lss::make_greedy();
  lss::LssEngine engine(engine_config(), wrapped, *victim, nullptr, 1);
  engine.set_aggregation_hook(&wrapped);

  // Heat lba 1 (overwrite), then create overlap between hot and cold
  // pendings and let the deadline fire.
  engine.write_block(1, 0);
  engine.write_block(1, 0);
  engine.advance_time(500);
  engine.write_block(1, 1000);     // hot pending
  engine.write_block(700, 1010);   // first write -> cold pending
  engine.advance_time(1200);
  EXPECT_GT(wrapped.shadow_decisions(), 0u);
  EXPECT_GT(engine.metrics().shadow_blocks, 0u);
  wrapped.check_invariants(audit::Level::kCounters);
  engine.check_invariants();
}

TEST(AdaptEngineTest, MemoryAccountingCoversComponents) {
  AdaptConfig ac;
  ac.enable_threshold_adaptation = true;
  AdaptEngine f(ac);
  const std::size_t base = f.policy.memory_usage_bytes();
  EXPECT_GE(base, engine_config().logical_blocks * sizeof(VTime));
}

}  // namespace
}  // namespace adapt::core

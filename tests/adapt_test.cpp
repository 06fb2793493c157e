// Tests for the ADAPT core: Bloom filters and the bit-sliced re-access
// bank, spatial sampling, interval tracking, ghost sets, threshold
// adaptation, and the AdaptPolicy placement/aggregation logic (including
// engine integration of shadow append / lazy append).
#include <algorithm>
#include <deque>
#include <map>
#include <memory>
#include <set>
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
// FastMod64 / ReaccessBank probe
// ---------------------------------------------------------------------------

TEST(FastModTest, MatchesModuloOnEdgeValues) {
  const std::uint64_t divisors[] = {1,  2,  3,   63,         64,
                                    65, 640, 10240, 64000000, 0xffffffffull,
                                    (1ull << 63) + 1, ~std::uint64_t{0}};
  Rng rng(149);
  for (const std::uint64_t d : divisors) {
    const FastMod64 mod(d);
    const std::uint64_t xs[] = {0, 1, d - 1, d, d + 1, 2 * d - 1, 2 * d,
                                ~std::uint64_t{0}, ~std::uint64_t{0} - 1,
                                std::uint64_t{1} << 63};
    for (const std::uint64_t x : xs) ASSERT_EQ(mod(x), x % d) << x << " " << d;
    for (int i = 0; i < 10000; ++i) {
      const std::uint64_t x = rng();
      ASSERT_EQ(mod(x), x % d) << x << " " << d;
    }
  }
}

TEST(FastModTest, DoubleHashPositionsMatchModulo) {
  // The exact positions the bank computes, (h1 + i*h2) mod 2^64, reduced
  // by the stored reciprocal, against `%`: the bit counts of capacities 6,
  // 64 and 1024 (the default) and a large multiple of 64.
  for (const std::uint64_t bits : {std::uint64_t{64}, std::uint64_t{640},
                                   std::uint64_t{10240},
                                   std::uint64_t{64} * 1000003}) {
    const FastMod64 mod(bits);
    for (Lba lba = 0; lba < 1'000'000; ++lba) {
      std::uint64_t h1 = 0;
      std::uint64_t h2 = 0;
      BloomFilter::hashes(lba * 0x10001, h1, h2);
      for (std::uint64_t i = 0; i < BloomProbe::kHashes; ++i) {
        ASSERT_EQ(mod(h1 + i * h2), (h1 + i * h2) % bits)
            << "lba " << lba << " bits " << bits;
      }
    }
  }
}

TEST(FastModTest, BankProbeMatchesFilterProbe) {
  for (const std::uint32_t capacity : {1u, 6u, 64u, 1024u, 5000u}) {
    const ReaccessBank bank(4, 4, capacity);
    ASSERT_EQ(bank.bit_count(), BloomFilter::bit_count_for(capacity));
    for (Lba lba = 0; lba < 200'000; ++lba) {
      const Lba key = lba * 0x9e3779b9u;
      const BloomProbe got = bank.probe(key);
      const BloomProbe want = BloomFilter::probe(key, bank.bit_count());
      ASSERT_EQ(got.bit_count, want.bit_count);
      for (std::uint32_t i = 0; i < BloomProbe::kHashes; ++i) {
        ASSERT_EQ(got.bits[i], want.bits[i]) << "lba " << key;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// ReaccessBank
// ---------------------------------------------------------------------------

TEST(ReaccessBankTest, ScoreCountsFilters) {
  ReaccessBank d(1, 4, 10);
  d.insert(0, 42);
  EXPECT_EQ(d.score(d.hits(d.probe(42)), 0), 1u);
  // Fill the first filter so a new one opens, then insert again.
  for (Lba lba = 100; lba < 110; ++lba) d.insert(0, lba);
  d.insert(0, 42);
  EXPECT_GE(d.score(d.hits(d.probe(42)), 0), 2u);
  d.check_invariants(audit::Level::kFull);
}

TEST(ReaccessBankTest, FifoEviction) {
  ReaccessBank d(1, 2, 4);
  d.insert(0, 7);  // filter 0
  for (Lba lba = 100; lba < 104; ++lba) d.insert(0, lba);  // fills 0, opens 1
  for (Lba lba = 200; lba < 204; ++lba) d.insert(0, lba);  // fills 1, opens 2
  d.check_invariants(audit::Level::kCounters);
  // Max 2 filters: filter 0 (containing 7) must have been evicted by now.
  for (Lba lba = 300; lba < 304; ++lba) d.insert(0, lba);
  EXPECT_LE(d.filter_count(0), 2u);
  EXPECT_EQ(d.score(d.hits(d.probe(7)), 0), 0u);
  d.check_invariants(audit::Level::kFull);
}

TEST(ReaccessBankTest, ScoreBoundedByMaxFilters) {
  ReaccessBank d(1, 3, 2);
  for (int round = 0; round < 10; ++round) {
    d.insert(0, 5);
    d.insert(0, static_cast<Lba>(round + 100));
  }
  EXPECT_LE(d.score(d.hits(d.probe(5)), 0), 3u);
  EXPECT_EQ(d.score(~std::uint64_t{0}, 0), 3u);
}

TEST(ReaccessBankTest, GroupsDoNotShareBits) {
  ReaccessBank d(4, 4, 8);
  d.insert(2, 42);
  const std::uint64_t hits = d.hits(d.probe(42));
  EXPECT_EQ(d.score(hits, 0), 0u);
  EXPECT_EQ(d.score(hits, 1), 0u);
  EXPECT_EQ(d.score(hits, 2), 1u);
  EXPECT_EQ(d.score(hits, 3), 0u);
  EXPECT_EQ(d.total_inserted(2), 1u);
  EXPECT_EQ(d.total_inserted(0), 0u);
}

// The bank is one word per bit position, as wide as groups x filters per
// group rounded up to 8, 16, 32 or 64 bits, and allocated up front: the
// defaults (4 groups x 4 filters of 1024) are 10240 positions x 2 B =
// 20 KiB, the same as 16 full 1280 B filters.
TEST(ReaccessBankTest, WordWidthFollowsColumnCount) {
  EXPECT_EQ(ReaccessBank(1, 1, 64).word_bytes(), 1u);
  EXPECT_EQ(ReaccessBank(2, 4, 64).word_bytes(), 1u);
  EXPECT_EQ(ReaccessBank(3, 3, 64).word_bytes(), 2u);
  EXPECT_EQ(ReaccessBank(4, 4, 64).word_bytes(), 2u);
  EXPECT_EQ(ReaccessBank(5, 5, 64).word_bytes(), 4u);
  EXPECT_EQ(ReaccessBank(4, 16, 64).word_bytes(), 8u);
  EXPECT_EQ(ReaccessBank(1, 64, 64).word_bytes(), 8u);
  EXPECT_EQ(ReaccessBank(4, 4, 1024).memory_usage_bytes(), 20480u);
  EXPECT_EQ(ReaccessBank(1, 8, 1024).memory_usage_bytes(), 10240u);
  EXPECT_THROW(ReaccessBank(5, 13, 64), std::invalid_argument);
  EXPECT_THROW(ReaccessBank(1, 65, 64), std::invalid_argument);
}

TEST(ReaccessBankTest, MemoryIsBoundedAndStable) {
  ReaccessBank d(1, 2, 100);
  const std::size_t bytes = d.memory_usage_bytes();
  EXPECT_EQ(bytes, BloomFilter::bit_count_for(100) * 1);
  for (Lba lba = 0; lba < 10000; ++lba) {
    d.insert(0, lba);
    if (lba % 512 == 0) d.check_invariants(audit::Level::kCounters);
  }
  EXPECT_EQ(d.filter_count(0), 2u);
  EXPECT_EQ(d.memory_usage_bytes(), bytes);
  EXPECT_EQ(d.total_inserted(0), 10000u);
  d.check_invariants(audit::Level::kFull);
}

/// Reference model: one FIFO cascade of BloomFilter objects per group, the
/// layout the bank replaced.
class CascadeModel {
 public:
  CascadeModel(std::uint32_t groups, std::uint32_t filters,
               std::uint32_t capacity)
      : filters_(filters), capacity_(capacity), cascades_(groups) {}

  void insert(std::uint32_t group, Lba lba) {
    std::deque<BloomFilter>& c = cascades_[group];
    if (c.empty() || c.back().full()) {
      if (c.size() == filters_) c.pop_front();
      c.emplace_back(capacity_);
    }
    c.back().insert(lba);
  }

  std::uint32_t score(std::uint32_t group, Lba lba) const {
    std::uint32_t s = 0;
    for (const BloomFilter& f : cascades_[group]) {
      if (f.maybe_contains(lba)) ++s;
    }
    return s;
  }

  std::size_t filter_count(std::uint32_t group) const {
    return cascades_[group].size();
  }

 private:
  std::uint32_t filters_;
  std::uint32_t capacity_;
  std::vector<std::deque<BloomFilter>> cascades_;
};

struct BankGeometry {
  std::uint32_t groups;
  std::uint32_t filters;
  std::uint32_t capacity;
};

class ReaccessBankReferenceTest
    : public ::testing::TestWithParam<BankGeometry> {};

TEST_P(ReaccessBankReferenceTest, EqualsFifoCascadesOfBloomFilters) {
  const BankGeometry geo = GetParam();
  ReaccessBank bank(geo.groups, geo.filters, geo.capacity);
  CascadeModel model(geo.groups, geo.filters, geo.capacity);
  Rng rng(151 + geo.capacity);
  // Enough random inserts that every group opens >= 3 full rings of
  // filters, i.e. rotates through its FIFO at least three times.
  const std::uint64_t per_group =
      4ull * geo.filters * geo.capacity + geo.capacity / 2 + 1;
  const std::uint64_t inserts = per_group * geo.groups;
  const Lba space = std::max<Lba>(4 * geo.capacity * geo.filters, 64);
  std::vector<Lba> inserted;
  std::uint64_t scored_hits = 0;
  const auto compare = [&](Lba lba) {
    const std::uint64_t hits = bank.hits(bank.probe(lba));
    for (std::uint32_t g = 0; g < geo.groups; ++g) {
      const std::uint32_t want = model.score(g, lba);
      ASSERT_EQ(bank.score(hits, g), want) << "group " << g << " lba " << lba;
      scored_hits += want;
    }
  };
  std::vector<std::uint64_t> per_group_inserts(geo.groups, 0);
  for (std::uint64_t i = 0; i < inserts; ++i) {
    // Random group, but never let one group run far ahead of the others.
    auto g = static_cast<std::uint32_t>(rng.below(geo.groups));
    while (per_group_inserts[g] >= per_group) g = (g + 1) % geo.groups;
    ++per_group_inserts[g];
    const Lba lba = rng.below(space);
    bank.insert(g, lba);
    model.insert(g, lba);
    inserted.push_back(lba);
    if (i % 7 == 0) {
      compare(inserted[rng.below(inserted.size())]);  // likely present
      compare(space + rng.below(1u << 30));           // never inserted
    }
    if (i % 997 == 0) bank.check_invariants(audit::Level::kFull);
  }
  for (std::uint32_t g = 0; g < geo.groups; ++g) {
    EXPECT_EQ(bank.filter_count(g), model.filter_count(g));
    EXPECT_EQ(bank.total_inserted(g), per_group);
  }
  EXPECT_GT(scored_hits, 0u);  // the inserted half must actually score
  bank.check_invariants(audit::Level::kFull);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, ReaccessBankReferenceTest,
    ::testing::Values(BankGeometry{4, 4, 1},     // DemotionRequiresScore...
                      BankGeometry{4, 4, 16},    // default shape, small
                      BankGeometry{4, 4, 64},
                      BankGeometry{2, 3, 5},     // 8-bit words
                      BankGeometry{5, 5, 8},     // 32-bit words
                      BankGeometry{8, 8, 4},     // 64-bit words, all used
                      BankGeometry{1, 1, 32}));  // a lone filter

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
  EXPECT_EQ(i.raw_interval, ReuseDistanceTracker::kFirstAccess);
  EXPECT_EQ(i.id, 0u);
}

TEST(ReuseDistanceTest, ReuseReportsRawInterval) {
  ReuseDistanceTracker t;
  t.access(5, 0);
  EXPECT_EQ(t.access(5, 3).raw_interval, 3u);
  EXPECT_EQ(t.access(5, 3).raw_interval, 0u);  // same clock tick
  t.access(6, 10);
  EXPECT_EQ(t.access(5, 12).raw_interval, 9u);
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

TEST(ReuseDistanceTest, AnyLbaValueIsAKey) {
  // Free slots are marked by their id, so no LBA value is reserved.
  ReuseDistanceTracker t;
  EXPECT_EQ(t.access(0, 1).id, 0u);
  EXPECT_EQ(t.access(kInvalidLba, 2).id, 1u);
  EXPECT_EQ(t.access(0, 5).raw_interval, 4u);
  EXPECT_EQ(t.access(kInvalidLba, 7).raw_interval, 5u);
}

TEST(ReuseDistanceTest, MatchesMapModelAcrossGrowths) {
  // The flat table against a std::map model: every access's id and
  // interval, through many doublings of the table. Keys mix a dense range
  // (probe clusters), fibonacci-colliding strides and arbitrary 64-bit
  // values.
  struct Last {
    std::uint64_t time;
    std::uint32_t id;
  };
  ReuseDistanceTracker t;
  std::map<Lba, Last> model;
  Rng rng(157);
  std::vector<Lba> keys;
  for (Lba i = 0; i < 3000; ++i) keys.push_back(i);
  for (Lba i = 1; i <= 2000; ++i) keys.push_back(i << 52);
  for (int i = 0; i < 3000; ++i) keys.push_back(rng());
  std::size_t growths = 0;
  std::size_t slots = t.slot_count();
  for (std::uint64_t now = 0; now < 200000; ++now) {
    // Skew toward re-accesses once the table is populated.
    const std::size_t reach = std::min<std::size_t>(
        keys.size(), 16 + static_cast<std::size_t>(now / 16));
    const Lba lba = keys[rng.below(reach)];
    const auto got = t.access(lba, now);
    const auto it = model.find(lba);
    if (it == model.end()) {
      ASSERT_EQ(got.raw_interval, ReuseDistanceTracker::kFirstAccess);
      ASSERT_EQ(got.id, model.size());
      model.emplace(lba, Last{now, got.id});
    } else {
      ASSERT_EQ(got.raw_interval, now - it->second.time) << "at " << now;
      ASSERT_EQ(got.id, it->second.id) << "at " << now;
      it->second.time = now;
    }
    if (t.slot_count() != slots) {
      ++growths;
      slots = t.slot_count();
      // Insert-only table: at most 3/4 full right after each growth.
      ASSERT_LE(t.tracked_blocks() * 4, slots * 3);
    }
  }
  EXPECT_EQ(t.tracked_blocks(), model.size());
  EXPECT_EQ(model.size(), std::set<Lba>(keys.begin(), keys.end()).size());
  EXPECT_GE(growths, 3u);
}

// Memory follows the sampled blocks, never the access count: each slot is
// {8 B lba, 8 B time, 4 B id} padded to 24 B, and the table doubles from
// 16 slots whenever an insert would pass 3/4 load.
TEST(ReuseDistanceTest, MemoryBoundedBySampledBlocks) {
  ReuseDistanceTracker t;
  EXPECT_EQ(t.memory_usage_bytes(), 16u * 24);
  for (Lba lba = 0; lba < 12; ++lba) t.access(lba, lba);
  EXPECT_EQ(t.memory_usage_bytes(), 16u * 24);  // 12 = 3/4 of 16
  t.access(12, 12);
  EXPECT_EQ(t.memory_usage_bytes(), 32u * 24);
  // A million more accesses to the same 13 blocks cost nothing.
  for (std::uint64_t now = 13; now < 1'000'013; ++now) t.access(now % 13, now);
  EXPECT_EQ(t.memory_usage_bytes(), 32u * 24);
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
//   buckets:          5 valid counts (0-4) * 1 word (8 slab
//                     segments fit one 64-bit word) * 8 B       =  40
//   bucket sizes:     5 * 4 B                                   =  20
//   loc_ (id -> slot): 20 ids * 4 B                              =  80
//   total: 128 + 128 + 40 + 20 + 80 = 396
// (The hash-map layout the slab replaced modelled 1285 B for the same
// scenario.)
TEST(GhostSetTest, MemoryAccountsForBitmapsAndSegmentOverhead) {
  GhostSet g(tiny_ghost(), 100);
  for (std::uint32_t id = 0; id < 20; ++id) g.write(id, 1000);
  ASSERT_EQ(g.segment_count(), 5u);
  EXPECT_EQ(g.memory_usage_bytes(), 396u);
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

/// Brute-force reference ghost: the same layout rules on ordinary
/// containers, with the victim found by scanning every sealed segment for
/// the fewest valid blocks, ties to the oldest.
class ScanGhost {
 public:
  ScanGhost(std::uint32_t segment_blocks, std::uint32_t capacity,
            std::uint64_t threshold)
      : b_(segment_blocks), capacity_(capacity), threshold_(threshold) {}

  void write(std::uint32_t id, std::uint64_t interval) {
    ++written_;
    if (const auto it = loc_.find(id); it != loc_.end()) {
      Seg& seg = segs_.at(it->second);
      seg.live.erase(id);
    }
    std::uint64_t& open = open_[interval < threshold_ ? 0 : 1];
    if (open == kNone) {
      open = next_key_++;
      segs_.emplace(open, Seg{});
    }
    Seg& seg = segs_.at(open);
    seg.live.insert(id);
    loc_[id] = open;
    if (++seg.fill == b_) {
      seg.sealed = true;
      open = kNone;
    }
    while (segs_.size() > capacity_) {
      std::uint64_t victim = kNone;
      for (const auto& [key, s] : segs_) {  // ascending key
        if (!s.sealed) continue;
        if (victim == kNone || s.live.size() < segs_.at(victim).live.size()) {
          victim = key;
        }
      }
      if (victim == kNone) return;
      const Seg& dead = segs_.at(victim);
      discarded_ += dead.live.size();
      for (const std::uint32_t gone : dead.live) loc_.erase(gone);
      segs_.erase(victim);
      ++gc_runs_;
    }
  }

  std::uint64_t written() const { return written_; }
  std::uint64_t discarded() const { return discarded_; }
  std::uint64_t gc_runs() const { return gc_runs_; }

 private:
  static constexpr std::uint64_t kNone = ~std::uint64_t{0};
  struct Seg {
    std::set<std::uint32_t> live;
    std::uint32_t fill = 0;
    bool sealed = false;
  };
  std::uint32_t b_;
  std::uint32_t capacity_;
  std::uint64_t threshold_;
  std::uint64_t next_key_ = 0;
  std::uint64_t open_[2] = {kNone, kNone};
  std::map<std::uint64_t, Seg> segs_;
  std::map<std::uint32_t, std::uint64_t> loc_;
  std::uint64_t written_ = 0;
  std::uint64_t discarded_ = 0;
  std::uint64_t gc_runs_ = 0;
};

TEST(GhostSetTest, BucketedVictimsMatchScanReference) {
  // The cloud replay's ghost geometries: 8-32-block segments, 32-128
  // segment budgets. Random streams mix a hot id range written with short
  // intervals, a warm range around the threshold and a cold write-once
  // tail, so victims come from many different buckets and ties are common.
  const std::pair<std::uint32_t, std::uint32_t> geometries[] = {
      {8, 32}, {10, 34}, {16, 64}, {24, 100}, {32, 104}, {32, 128}};
  std::uint64_t seed = 163;
  for (const auto& [blocks, capacity] : geometries) {
    const std::uint64_t threshold = 4ull * blocks * capacity;
    const GhostConfig config{.segment_blocks = blocks,
                             .capacity_segments = capacity};
    GhostSet ghost(config, threshold);
    ScanGhost reference(blocks, capacity, threshold);
    Rng rng(seed++);
    const std::uint32_t live_ids = 2 * blocks * capacity;
    std::uint32_t cold = live_ids;
    for (int i = 0; i < 60000; ++i) {
      std::uint32_t id = 0;
      std::uint64_t interval = 0;
      const std::uint64_t roll = rng.below(10);
      if (roll < 5) {
        id = static_cast<std::uint32_t>(rng.below(live_ids / 8));
        interval = rng.below(threshold);
      } else if (roll < 8) {
        id = static_cast<std::uint32_t>(rng.below(live_ids));
        interval = rng.below(2 * threshold);
      } else {
        id = cold++;
        interval = ReuseDistanceTracker::kFirstAccess;
      }
      ghost.write(id, interval);
      reference.write(id, interval);
      ASSERT_EQ(ghost.discarded(), reference.discarded())
          << "segment " << blocks << " capacity " << capacity << " at " << i;
      ASSERT_EQ(ghost.gc_runs(), reference.gc_runs())
          << "segment " << blocks << " capacity " << capacity << " at " << i;
      if (i % 4096 == 0) ghost.check_invariants(audit::Level::kFull);
    }
    EXPECT_GT(ghost.gc_runs(), 100u);
    EXPECT_GT(ghost.discarded(), 0u);
    ghost.check_invariants(audit::Level::kFull);
  }
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

// small_adapter() samples every block (rate 1) into 5 ghosts of 64-block
// segments with a 16-segment budget (4096 * 1.25 * 0.20 / 64), so each
// slab holds 18 segments. Per ghost, before any write:
//   slab id log:     18 * 64 slots * 4 B                 = 4608
//   segment headers: 18 * 16 B                           =  288
//   buckets:         65 valid counts * 1 word * 8 B      =  520
//   bucket sizes:    65 * 4 B                            =  260
//                                                          5676
// and the tracker's 16 initial 24 B slots are 384 B: 5 * 5676 + 384 =
// 28764. 1000 distinct LBAs then add a 4 B loc_ entry per id to every
// ghost (5 * 4000) and grow the tracker to the first power of two whose
// 3/4 holds 1000 entries, 2048 slots (49152 B): 5 * 9676 + 49152 = 97532.
// Repeating those LBAs adds nothing: memory follows sampled blocks, not
// accesses.
TEST(ThresholdAdapterTest, MemoryGrowsWithTracking) {
  ThresholdAdapter a(small_adapter());
  EXPECT_EQ(a.memory_usage_bytes(), 28764u);
  for (Lba lba = 0; lba < 1000; ++lba) a.on_user_write(lba, lba);
  EXPECT_EQ(a.memory_usage_bytes(), 97532u);
  for (Lba lba = 0; lba < 5000; ++lba) a.on_user_write(lba % 1000, 1000 + lba);
  EXPECT_EQ(a.memory_usage_bytes(), 97532u);
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

// The policy's memory is its per-LBA last-write times plus its two
// components, all sized up front, at the engine fixture's geometry (1024
// LBAs, 8-block segments, over-provision 0.25):
//   last_write_:  1024 LBAs * 8 B                                = 8192
//   re-access bank: 4 groups * 4 filters = 16 columns -> 2 B words,
//                 times 10240 bit positions (capacity 1024)       = 20480
//   adapter: the sample rate auto-sizes to 1, so each of 7 ghosts has
//     8-block segments and a 32-segment budget (1024 * 1.25 * 0.20 / 8):
//     34 slab segments * 8 slots * 4 B = 1088, 34 headers * 16 B = 544,
//     9 buckets * 8 B = 72 and 9 sizes * 4 B = 36, i.e. 1740 per ghost;
//     plus 16 tracker slots * 24 B = 384             -> 7 * 1740 + 384 = 12564
TEST(AdaptEngineTest, MemoryAccountingCoversComponents) {
  AdaptConfig ac;
  ac.logical_blocks = engine_config().logical_blocks;
  ac.segment_blocks = engine_config().segment_blocks();
  ac.chunk_blocks = engine_config().chunk_blocks;
  ac.enable_threshold_adaptation = true;
  AdaptPolicy p(ac);
  ASSERT_NE(p.adapter(), nullptr);
  ASSERT_NE(p.reaccess(), nullptr);
  EXPECT_EQ(p.reaccess()->memory_usage_bytes(), 20480u);
  EXPECT_EQ(p.adapter()->memory_usage_bytes(), 12564u);
  EXPECT_EQ(p.memory_usage_bytes(), 8192u + 20480u + 12564u);
  ac.enable_proactive_demotion = false;
  ac.enable_threshold_adaptation = false;
  EXPECT_EQ(AdaptPolicy(ac).memory_usage_bytes(), 8192u);
}

}  // namespace
}  // namespace adapt::core

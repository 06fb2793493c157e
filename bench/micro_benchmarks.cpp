// Google-benchmark microbenchmarks for the hot data structures on ADAPT's
// critical path: the re-access bank's Bloom lookups (paper §3.4 claims
// nanosecond lookups), interval tracking, ghost-set writes and GC, Zipfian
// draws, and the end-to-end engine write path.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "adapt/adapt_policy.h"
#include "adapt/bloom.h"
#include "adapt/ghost_set.h"
#include "adapt/reuse_distance.h"
#include "common/rng.h"
#include "common/zipf.h"
#include "lss/engine.h"
#include "lss/victim_policy.h"
#include "placement/sepbit.h"

namespace {

using namespace adapt;

void BM_BloomInsert(benchmark::State& state) {
  core::BloomFilter filter(1 << 16);
  Lba lba = 0;
  for (auto _ : state) {
    filter.insert(lba++);
  }
}
BENCHMARK(BM_BloomInsert);

void BM_BloomLookup(benchmark::State& state) {
  core::BloomFilter filter(1 << 16);
  for (Lba lba = 0; lba < (1 << 16); ++lba) filter.insert(lba);
  Lba lba = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(filter.maybe_contains(lba++));
  }
}
BENCHMARK(BM_BloomLookup);

// Hashing and reducing an LBA to its seven bit positions: the reference
// filter's `%` against the bank's stored-reciprocal reduction.
void BM_BloomProbe(benchmark::State& state) {
  const std::uint64_t bits = core::BloomFilter::bit_count_for(1024);
  Lba lba = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::BloomFilter::probe(lba++, bits));
  }
}
BENCHMARK(BM_BloomProbe);

void BM_BankProbe(benchmark::State& state) {
  const core::ReaccessBank bank(4, 4, 1024);
  Lba lba = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(bank.probe(lba++));
  }
}
BENCHMARK(BM_BankProbe);

/// The policy's bank (4 GC groups x 4 filters of 1024) with every group
/// holding `filled` full filters.
core::ReaccessBank filled_bank(std::uint32_t filled, Lba& next) {
  core::ReaccessBank bank(4, 4, 1024);
  for (std::uint32_t g = 0; g < 4; ++g) {
    for (Lba i = 0; i < Lba{filled} * 1024; ++i) bank.insert(g, next++);
  }
  return bank;
}

// A ready probe against all 16 filters at once: seven word loads and ANDs.
void BM_BankHits(benchmark::State& state) {
  Lba next = 0;
  const core::ReaccessBank bank = filled_bank(4, next);
  std::vector<core::BloomProbe> probes;
  for (Lba lba = 0; lba < 4096; ++lba) probes.push_back(bank.probe(lba * 3));
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(bank.hits(probes[i++ & 4095]));
  }
}
BENCHMARK(BM_BankHits);

// AdaptPolicy's demotion check: probe one LBA, then score it against all
// four GC groups' cascades, each filled to `range(0)` filters.
void BM_AdaptBankScore(benchmark::State& state) {
  Lba next = 0;
  const core::ReaccessBank bank =
      filled_bank(static_cast<std::uint32_t>(state.range(0)), next);
  Rng rng(6);
  for (auto _ : state) {
    const std::uint64_t hits = bank.hits(bank.probe(rng.below(next + 1)));
    std::uint32_t best = 0;
    for (std::uint32_t g = 0; g < 4; ++g) {
      best = std::max(best, bank.score(hits, g));
    }
    benchmark::DoNotOptimize(best);
  }
}
BENCHMARK(BM_AdaptBankScore)->Arg(1)->Arg(2)->Arg(4)->ArgName("filters");

// GC-time inserts, including the FIFO rotation sweeps that retire a column
// every 1024 inserts per group.
void BM_BankInsert(benchmark::State& state) {
  core::ReaccessBank bank(4, 4, 1024);
  Lba lba = 0;
  for (auto _ : state) {
    bank.insert(static_cast<std::uint32_t>(lba & 3), lba);
    ++lba;
  }
}
BENCHMARK(BM_BankInsert);

void BM_ReuseDistanceAccess(benchmark::State& state) {
  core::ReuseDistanceTracker tracker;
  Rng rng(1);
  const auto span = static_cast<std::uint64_t>(state.range(0));
  std::uint64_t now = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tracker.access(rng.below(span), now++));
  }
}
BENCHMARK(BM_ReuseDistanceAccess)->Arg(1 << 10)->Arg(1 << 14);

void BM_GhostSetWrite(benchmark::State& state) {
  core::GhostSet ghost(
      core::GhostConfig{.segment_blocks = 16, .capacity_segments = 256},
      1024);
  Rng rng(2);
  for (auto _ : state) {
    ghost.write(static_cast<std::uint32_t>(rng.below(8192)), rng.below(4096));
  }
}
BENCHMARK(BM_GhostSetWrite);

// Ghost writes at the cloud replay's ghost geometries (segment blocks,
// capacity segments): a hot working set overwritten at short intervals plus
// a write-once cold stream, so a segment seals every few writes and GC
// picks a victim from the valid-count buckets about as often.
void BM_GhostGcCloudGeometry(benchmark::State& state) {
  const auto blocks = static_cast<std::uint32_t>(state.range(0));
  const auto capacity = static_cast<std::uint32_t>(state.range(1));
  const std::uint64_t threshold = std::uint64_t{4} * blocks * capacity;
  core::GhostSet ghost(
      core::GhostConfig{.segment_blocks = blocks,
                        .capacity_segments = capacity},
      threshold);
  const std::uint32_t hot = blocks * capacity / 2;
  Rng rng(8);
  std::uint32_t cold = hot;
  // Warm the ghost (and its loc_ array) before timing.
  for (std::uint32_t i = 0; i < 16 * blocks * capacity; ++i) {
    ghost.write(static_cast<std::uint32_t>(rng.below(hot)),
                rng.below(2 * threshold));
  }
  for (auto _ : state) {
    if (rng.chance(0.7)) {
      ghost.write(static_cast<std::uint32_t>(rng.below(hot)),
                  rng.below(2 * threshold));
    } else {
      ghost.write(cold, core::ReuseDistanceTracker::kFirstAccess);
      cold = cold + 1 == 4 * hot ? hot : cold + 1;
    }
  }
  state.counters["gc_per_write"] = benchmark::Counter(
      static_cast<double>(ghost.gc_runs()) /
      static_cast<double>(std::max<std::uint64_t>(ghost.written(), 1)));
}
BENCHMARK(BM_GhostGcCloudGeometry)
    ->Args({10, 34})
    ->Args({32, 104})
    ->ArgNames({"segment", "capacity"});

void BM_ZipfianNext(benchmark::State& state) {
  ZipfianGenerator zipf(1u << 20, 0.99);
  Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.next(rng));
  }
}
BENCHMARK(BM_ZipfianNext);

void BM_SepBitPlacement(benchmark::State& state) {
  placement::SepBitPolicy policy(1u << 20, 4096);
  Rng rng(4);
  VTime now = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(policy.place_user_write(rng.below(1u << 20), now++));
  }
}
BENCHMARK(BM_SepBitPlacement);

void BM_AdaptPlacement(benchmark::State& state) {
  core::AdaptConfig config;
  config.logical_blocks = 1u << 20;
  config.segment_blocks = 4096;
  core::AdaptPolicy policy(config);
  Rng rng(5);
  VTime now = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(policy.place_user_write(rng.below(1u << 20), now++));
  }
}
BENCHMARK(BM_AdaptPlacement);

void BM_EngineWritePath(benchmark::State& state) {
  lss::LssConfig config;
  config.logical_blocks = 1u << 16;
  config.over_provision = 0.3;
  placement::SepBitPolicy policy(config.logical_blocks,
                                 config.segment_blocks());
  auto victim = lss::make_greedy();
  lss::LssEngine engine(config, policy, *victim, nullptr, 1);
  Rng rng(6);
  TimeUs now = 0;
  for (auto _ : state) {
    now += 10;
    engine.write_block(rng.below(config.logical_blocks), now);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EngineWritePath);

}  // namespace

BENCHMARK_MAIN();

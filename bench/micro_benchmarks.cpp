// Google-benchmark microbenchmarks for the hot data structures on ADAPT's
// critical path: the Bloom-cascade lookup (paper §3.4 claims nanosecond
// lookups), reuse-distance tracking, ghost-set writes, Zipfian draws, and
// the end-to-end engine write path.
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

// The hash-once split of BM_BloomLookup: hashing and reducing an LBA to its
// seven bit positions, then testing a ready probe against one filter.
void BM_BloomProbe(benchmark::State& state) {
  const std::uint64_t bits = core::BloomFilter::bit_count_for(1 << 16);
  Lba lba = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::BloomFilter::probe(lba++, bits));
  }
}
BENCHMARK(BM_BloomProbe);

void BM_BloomContainsProbe(benchmark::State& state) {
  core::BloomFilter filter(1 << 16);
  for (Lba lba = 0; lba < (1 << 16); ++lba) filter.insert(lba);
  std::vector<core::BloomProbe> probes;
  for (Lba lba = 0; lba < 4096; ++lba) probes.push_back(filter.probe(lba));
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(filter.contains(probes[i++ & 4095]));
  }
}
BENCHMARK(BM_BloomContainsProbe);

void BM_CascadeScore(benchmark::State& state) {
  core::CascadeDiscriminator cascade(
      static_cast<std::uint32_t>(state.range(0)), 4096);
  for (Lba lba = 0; lba < 16384; ++lba) cascade.insert(lba);
  Lba lba = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cascade.score(cascade.probe(lba++)));
  }
}
BENCHMARK(BM_CascadeScore)->Arg(2)->Arg(4)->Arg(8);

// AdaptPolicy's demotion check: score one LBA against all 4 GC-group
// cascades (bloom_filters_per_group = 4, bloom_filter_capacity = 1024 by
// default), each filled to `range(0)` filters. hash_once:1 hashes once and
// shares the probe (the policy's path); hash_once:0 re-hashes in every
// filter, as each maybe_contains() call does.
void BM_AdaptCascadeScore(benchmark::State& state) {
  const auto filled = static_cast<Lba>(state.range(0));
  const bool hash_once = state.range(1) != 0;
  std::vector<core::CascadeDiscriminator> cascades(
      4, core::CascadeDiscriminator(4, 1024));
  Lba next = 0;
  for (core::CascadeDiscriminator& c : cascades) {
    for (Lba i = 0; i < filled * 1024; ++i) c.insert(next++);
  }
  Rng rng(6);
  for (auto _ : state) {
    const Lba lba = rng.below(next + 1);
    std::uint32_t best = 0;
    if (hash_once) {
      const core::BloomProbe probe = cascades.front().probe(lba);
      for (const core::CascadeDiscriminator& c : cascades) {
        best = std::max(best, c.score(probe));
      }
    } else {
      for (const core::CascadeDiscriminator& c : cascades) {
        std::uint32_t score = 0;
        for (const core::BloomFilter& f : c.filters()) {
          if (f.maybe_contains(lba)) ++score;
        }
        best = std::max(best, score);
      }
    }
    benchmark::DoNotOptimize(best);
  }
}
BENCHMARK(BM_AdaptCascadeScore)
    ->ArgsProduct({{1, 2, 4}, {0, 1}})
    ->ArgNames({"filters", "hash_once"});

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

// The pinned fixed-seed ADAPT replay: one alibaba-profile volume (model
// seed 42, volume 0, fill 3.0) under ADAPT with greedy victims. Several
// suites replay it with different passive observers attached (sampler,
// trace sinks, victim index) and must all land on these exact counters, so
// they live in one place. Re-pin only for an intentional behaviour change
// and record the old -> new values in CHANGES.md.
#pragma once

#include <cstddef>
#include <cstdint>

#include <gtest/gtest.h>

#include "lss/metrics.h"
#include "trace/synthetic.h"

namespace adapt::testing {

/// The pinned volume; callers assert its record count before replaying.
inline trace::Volume pinned_adapt_volume() {
  trace::CloudVolumeModel model(trace::alibaba_profile(), /*seed=*/42);
  return model.make_volume(/*volume_id=*/0, /*fill_factor=*/3.0);
}

inline constexpr std::size_t kPinnedAdaptRecords = 66314;

/// Checks every pinned counter of the replay's LssMetrics.
inline void expect_pinned_adapt_metrics(const lss::LssMetrics& m) {
  EXPECT_EQ(m.user_blocks, 173331u);
  EXPECT_EQ(m.gc_blocks, 89742u);
  EXPECT_EQ(m.shadow_blocks, 9783u);
  EXPECT_EQ(m.padding_blocks, 146536u);
  EXPECT_EQ(m.gc_runs, 1367u);
  EXPECT_EQ(m.gc_migrated_blocks, 89742u);
  EXPECT_EQ(m.forced_lazy_flushes, 16u);
  EXPECT_EQ(m.rmw_flushes, 0u);
  EXPECT_EQ(m.read_blocks, 140561u);
  EXPECT_EQ(m.read_chunk_fetches, 47185u);
  EXPECT_EQ(m.read_buffer_hits, 465u);
  EXPECT_EQ(m.read_unmapped, 34479u);
  std::uint64_t sealed = 0, reclaimed = 0, full = 0, padded = 0;
  for (const lss::GroupTraffic& g : m.groups) {
    sealed += g.segments_sealed;
    reclaimed += g.segments_reclaimed;
    full += g.full_flushes;
    padded += g.padded_flushes;
  }
  EXPECT_EQ(sealed, 1634u);
  EXPECT_EQ(reclaimed, 1367u);
  EXPECT_EQ(full, 12841u);
  EXPECT_EQ(padded, 13371u);
}

}  // namespace adapt::testing

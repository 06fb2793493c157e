// The traced run's engine: an lss::LssEngine built exactly as the 1-shard
// sim::run_volume path builds it, except that the placement policy, the
// aggregation hook and the victim policy are reached through forwarding
// wrappers that time every call into a SpanRecorder. The replay loop times
// LssEngine::write/read/flush_all the same way, so all spans are recorded
// from the benchmark's own files; nothing inside the program changes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <utility>
#include <vector>

#include "adapt/threshold_adapter.h"
#include "array/ssd_array.h"
#include "lss/metrics.h"
#include "sim/simulator.h"
#include "spans.h"
#include "trace/record.h"

namespace perfbench {

struct TracedVolume {
  adapt::lss::LssMetrics metrics;
  adapt::array::StreamStats array_totals;
  std::uint64_t chunks_flushed = 0;
  /// Wall time of the wrapped replay loop plus flush_all (no construction).
  double replay_seconds = 0.0;
  /// Write calls during which metrics().gc_runs advanced, and their self ns.
  std::uint64_t write_gc_calls = 0;
  std::uint64_t write_gc_self_ns = 0;
  /// on_chunk_deadline decisions that aggregated instead of padding.
  std::uint64_t deadline_aggregates = 0;
  std::uint64_t logical_blocks = 0;
  std::size_t policy_memory_bytes = 0;
  bool is_adapt = false;
  std::uint64_t demotions = 0;          ///< AdaptPolicy only
  std::uint64_t shadow_decisions = 0;   ///< AdaptPolicy only
  std::uint64_t policy_sampled_writes = 0;  ///< AdaptPolicy's own adapter
  std::uint64_t policy_adoptions = 0;
  /// The ThresholdAdapter configuration AdaptPolicy derives for this
  /// volume's geometry (used for the standalone adapter replay).
  adapt::core::AdapterConfig adapter_config;
  /// (lba, vtime) of every place_user_write call, when captured.
  std::vector<std::pair<adapt::Lba, adapt::VTime>> user_writes;
};

/// The logical capacity sim::run_volume gives a 1-shard volume's engine.
std::uint64_t volume_logical_blocks(const adapt::trace::Volume& volume);

/// Replays `volume` through the wrapped engine, recording spans into `rec`.
TracedVolume replay_traced(const adapt::trace::Volume& volume,
                           std::string_view policy_name,
                           const adapt::sim::SimConfig& config,
                           SpanRecorder& rec, bool capture_user_writes);

struct AdapterReplay {
  double seconds = 0.0;
  std::uint64_t writes = 0;
  std::uint64_t sampled_writes = 0;
  std::uint64_t adoptions = 0;
  std::size_t memory_bytes = 0;
};

/// Feeds a captured user-write stream through a standalone ThresholdAdapter.
AdapterReplay replay_adapter(
    const adapt::core::AdapterConfig& config,
    const std::vector<std::pair<adapt::Lba, adapt::VTime>>& writes);

}  // namespace perfbench

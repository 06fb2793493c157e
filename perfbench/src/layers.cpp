#include "layers.h"

#include <algorithm>
#include <chrono>
#include <memory>

#include "adapt/adapt_policy.h"
#include "lss/engine.h"
#include "lss/sharded_engine.h"
#include "lss/victim_policy.h"
#include "placement/factory.h"

namespace perfbench {

using namespace adapt;

namespace {

using Scope = SpanRecorder::Scope;

class PolicyProbe final : public lss::PlacementPolicy {
 public:
  PolicyProbe(lss::PlacementPolicy& inner, SpanRecorder& rec,
              std::vector<std::pair<Lba, VTime>>* capture)
      : inner_(inner), rec_(rec), capture_(capture) {}

  std::string_view name() const override { return inner_.name(); }
  GroupId group_count() const override { return inner_.group_count(); }
  bool is_user_group(GroupId g) const override {
    return inner_.is_user_group(g);
  }
  GroupId place_user_write(Lba lba, VTime now) override {
    if (capture_ != nullptr) capture_->emplace_back(lba, now);
    Scope s(rec_, Layer::kPlaceUser);
    return inner_.place_user_write(lba, now);
  }
  GroupId place_gc_rewrite(Lba lba, GroupId victim_group,
                           VTime now) override {
    Scope s(rec_, Layer::kPlaceGc);
    return inner_.place_gc_rewrite(lba, victim_group, now);
  }
  void note_segment_sealed(GroupId group, VTime now) override {
    Scope s(rec_, Layer::kPolicyNote);
    inner_.note_segment_sealed(group, now);
  }
  void note_segment_reclaimed(GroupId group, VTime create_vtime,
                              VTime now) override {
    Scope s(rec_, Layer::kPolicyNote);
    inner_.note_segment_reclaimed(group, create_vtime, now);
  }
  std::size_t memory_usage_bytes() const override {
    return inner_.memory_usage_bytes();
  }

 private:
  lss::PlacementPolicy& inner_;
  SpanRecorder& rec_;
  std::vector<std::pair<Lba, VTime>>* capture_;
};

class HookProbe final : public lss::AggregationHook {
 public:
  HookProbe(lss::AggregationHook& inner, SpanRecorder& rec)
      : inner_(inner), rec_(rec) {}

  lss::AggregationDecision on_chunk_deadline(
      GroupId group, const lss::LssEngine& engine) override {
    Scope s(rec_, Layer::kDeadline);
    const lss::AggregationDecision d = inner_.on_chunk_deadline(group, engine);
    if (d.aggregate()) ++aggregates;
    return d;
  }

  std::uint64_t aggregates = 0;

 private:
  lss::AggregationHook& inner_;
  SpanRecorder& rec_;
};

class VictimProbe final : public lss::VictimPolicy {
 public:
  VictimProbe(lss::VictimPolicy& inner, SpanRecorder& rec)
      : inner_(inner), rec_(rec) {}

  std::string_view name() const override { return inner_.name(); }
  void bind_pool(std::uint32_t total_segments,
                 std::uint32_t segment_blocks) override {
    inner_.bind_pool(total_segments, segment_blocks);
  }
  void on_seal(SegmentId seg, std::uint32_t valid_count,
               VTime seal_vtime) override {
    Scope s(rec_, Layer::kVictimNotify);
    inner_.on_seal(seg, valid_count, seal_vtime);
  }
  void on_valid_delta(SegmentId seg, std::uint32_t old_valid,
                      std::uint32_t new_valid) override {
    Scope s(rec_, Layer::kVictimNotify);
    inner_.on_valid_delta(seg, old_valid, new_valid);
  }
  void on_free(SegmentId seg) override {
    Scope s(rec_, Layer::kVictimNotify);
    inner_.on_free(seg);
  }
  bool is_candidate(SegmentId seg) const override {
    return inner_.is_candidate(seg);
  }
  SegmentId select(std::span<const lss::Segment> segments, VTime now,
                   Rng& rng) override {
    Scope s(rec_, Layer::kVictimSelect);
    return inner_.select(segments, now, rng);
  }

 private:
  lss::VictimPolicy& inner_;
  SpanRecorder& rec_;
};

}  // namespace

std::uint64_t volume_logical_blocks(const trace::Volume& volume) {
  return std::max<std::uint64_t>(volume.capacity_blocks,
                                 std::uint64_t{1} << 15);
}

TracedVolume replay_traced(const trace::Volume& volume,
                           std::string_view policy_name,
                           const sim::SimConfig& config, SpanRecorder& rec,
                           bool capture_user_writes) {
  TracedVolume out;

  // Geometry and policy stack exactly as sim::run_volume builds shard 0 of
  // a 1-shard ShardedEngine.
  lss::LssConfig lss_config = config.lss;
  lss_config.logical_blocks = volume_logical_blocks(volume);
  const lss::LssConfig shard_lss = lss::shard_config(lss_config, 1);
  const std::uint64_t shard_seed = config.seed;

  std::unique_ptr<lss::PlacementPolicy> policy;
  core::AdaptPolicy* adapt_policy = nullptr;
  core::AdaptConfig ac;
  ac.logical_blocks = shard_lss.logical_blocks;
  ac.segment_blocks = shard_lss.segment_blocks();
  ac.chunk_blocks = shard_lss.chunk_blocks;
  ac.over_provision = shard_lss.over_provision;
  ac.enable_threshold_adaptation = config.adapt_threshold_adaptation;
  ac.enable_cross_group_aggregation = config.adapt_cross_group_aggregation;
  ac.enable_proactive_demotion = config.adapt_proactive_demotion;
  if (policy_name == "adapt") {
    auto p = core::make_adapt_policy(ac);
    adapt_policy = p.get();
    policy = std::move(p);
  } else {
    placement::PolicyConfig pc;
    pc.logical_blocks = shard_lss.logical_blocks;
    pc.segment_blocks = shard_lss.segment_blocks();
    pc.seed = shard_seed;
    policy = placement::make_baseline_policy(policy_name, pc);
  }
  // The adapter configuration AdaptPolicy's constructor derives from `ac`.
  out.adapter_config.sample_rate = ac.sample_rate;
  out.adapter_config.num_ghosts = ac.num_ghosts;
  out.adapter_config.segment_blocks = ac.segment_blocks;
  out.adapter_config.logical_blocks = ac.logical_blocks;
  out.adapter_config.over_provision = ac.over_provision;
  out.adapter_config.update_fraction = ac.update_fraction;

  std::unique_ptr<lss::VictimPolicy> victim =
      lss::make_victim_policy(config.victim_policy);
  std::unique_ptr<array::SsdArray> ssd_array;
  if (config.with_array) {
    array::SsdArrayConfig arr;
    arr.chunk_bytes = shard_lss.chunk_blocks * shard_lss.block_bytes;
    arr.num_streams = policy->group_count();
    ssd_array = std::make_unique<array::SsdArray>(arr);
  }

  if (capture_user_writes) out.user_writes.reserve(volume.records.size());
  PolicyProbe policy_probe(*policy, rec,
                           capture_user_writes ? &out.user_writes : nullptr);
  VictimProbe victim_probe(*victim, rec);
  std::unique_ptr<HookProbe> hook_probe;
  lss::LssEngine engine(shard_lss, policy_probe, victim_probe,
                        ssd_array.get(), shard_seed);
  if (adapt_policy != nullptr) {
    hook_probe = std::make_unique<HookProbe>(*adapt_policy, rec);
    engine.set_aggregation_hook(hook_probe.get());
  }

  // Replay with run_volume's clamping of requests past the capacity.
  const Lba addressable = std::min<Lba>(
      std::max<Lba>(volume.capacity_blocks, 1), lss_config.logical_blocks);
  const auto start = std::chrono::steady_clock::now();
  for (const trace::Record& r : volume.records) {
    const Lba end = std::min<Lba>(r.lba + r.blocks, addressable);
    if (r.lba >= end) continue;
    const auto span = static_cast<std::uint32_t>(end - r.lba);
    rec.begin_record();
    if (r.op == trace::OpType::kWrite) {
      const std::uint64_t gc_runs = engine.metrics().gc_runs;
      {
        Scope s(rec, Layer::kWrite);
        engine.write(r.lba, span, r.ts_us);
      }
      if (engine.metrics().gc_runs != gc_runs) {
        ++out.write_gc_calls;
        out.write_gc_self_ns += rec.last_self_ns();
      }
    } else {
      Scope s(rec, Layer::kRead);
      engine.read(r.lba, span, r.ts_us);
    }
  }
  rec.begin_record();
  {
    Scope s(rec, Layer::kFlushAll);
    engine.flush_all();
  }
  out.replay_seconds = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - start)
                           .count();

  out.metrics = engine.metrics();
  if (ssd_array != nullptr) out.array_totals = ssd_array->totals();
  out.chunks_flushed = engine.chunks_flushed();
  out.logical_blocks = shard_lss.logical_blocks;
  out.policy_memory_bytes = policy->memory_usage_bytes();
  if (hook_probe != nullptr) out.deadline_aggregates = hook_probe->aggregates;
  if (adapt_policy != nullptr) {
    out.is_adapt = true;
    out.demotions = adapt_policy->demotions();
    out.shadow_decisions = adapt_policy->shadow_decisions();
    if (const core::ThresholdAdapter* a = adapt_policy->adapter()) {
      out.policy_sampled_writes = a->sampled_writes();
      out.policy_adoptions = a->adoptions();
    }
  }
  return out;
}

AdapterReplay replay_adapter(
    const core::AdapterConfig& config,
    const std::vector<std::pair<Lba, VTime>>& writes) {
  AdapterReplay out;
  core::ThresholdAdapter adapter(config);
  const auto start = std::chrono::steady_clock::now();
  for (const auto& [lba, now] : writes) adapter.on_user_write(lba, now);
  out.seconds = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - start)
                    .count();
  out.writes = writes.size();
  out.sampled_writes = adapter.sampled_writes();
  out.adoptions = adapter.adoptions();
  out.memory_bytes = adapter.memory_usage_bytes();
  return out;
}

}  // namespace perfbench

// libFuzzer harness for op sequences through the engine: decodes bytes into
// write, read, gc_step, advance_time and flush_all and applies each op to a
// single LssEngine and to a 2-shard ShardedEngine over the same logical
// space. Every engine runs at audit::Level::kFull (a full self-audit after
// each op), and OracleModels mirror the writes — one for the single engine,
// one per shard — so a mapping or accounting drift traps instead of
// producing a plausible metric.
//
// Input layout: byte 0 picks the placement policy (bit 0: adapt, else
// sepgc); then one op per opcode byte, op = byte % 8:
//   0-2 write, 3 read   span: mode byte, LBA, blocks byte (% 17, so 0-16).
//                       mode bit 7 set: the LBA is 8 raw little-endian
//                       bytes (reaches LBAs near 2^64 whose end wraps);
//                       else 2 bytes % (logical + 32), straddling the end.
//   4 gc_step           watermark = reserve + groups + (byte >> 3) % 4.
//   5 advance_time      now += 2-byte delta.
//   6 flush_all         then every oracle checks the drained state.
//   7 write             as 0-2, but always with a raw 8-byte LBA.
// Truncated input ends the sequence. A span is valid iff
// blocks <= L && lba <= L - blocks: valid spans must apply, invalid ones
// must throw std::out_of_range and change nothing. Anything else — another
// exception, a sanitizer finding, an oracle or audit failure — is a crash.
//
// Seed corpus: fuzz/corpus/engine_ops/.
#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "adapt/adapt_policy.h"
#include "audit/oracle.h"
#include "lss/engine.h"
#include "lss/sharded_engine.h"
#include "lss/victim_policy.h"
#include "placement/factory.h"

namespace {

using adapt::Lba;
using adapt::TimeUs;

constexpr std::uint32_t kShards = 2;
constexpr std::size_t kMaxOps = 4096;

class Tape {
 public:
  Tape(const std::uint8_t* data, std::size_t size) : p_(data), n_(size) {}
  bool has(std::size_t bytes) const { return n_ >= bytes; }
  std::uint8_t u8() {
    --n_;
    return *p_++;
  }
  std::uint64_t le(std::size_t bytes) {
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < bytes; ++i) {
      v |= static_cast<std::uint64_t>(u8()) << (8 * i);
    }
    return v;
  }

 private:
  const std::uint8_t* p_;
  std::size_t n_;
};

adapt::lss::LssConfig fuzz_config() {
  adapt::lss::LssConfig cfg;
  cfg.chunk_blocks = 4;
  cfg.segment_chunks = 4;
  cfg.logical_blocks = 2048;
  cfg.over_provision = 0.5;
  cfg.audit_level = adapt::audit::Level::kFull;
  return cfg;
}

adapt::lss::ShardParts make_parts(bool adapt_policy,
                                  std::uint32_t shard_index,
                                  const adapt::lss::LssConfig& cfg) {
  adapt::lss::ShardParts parts;
  if (adapt_policy) {
    adapt::core::AdaptConfig ac;
    ac.logical_blocks = cfg.logical_blocks;
    ac.segment_blocks = cfg.segment_blocks();
    ac.chunk_blocks = cfg.chunk_blocks;
    ac.over_provision = cfg.over_provision;
    auto policy = adapt::core::make_adapt_policy(ac);
    parts.hook = policy.get();
    parts.policy = std::move(policy);
  } else {
    adapt::placement::PolicyConfig pc;
    pc.logical_blocks = cfg.logical_blocks;
    pc.segment_blocks = cfg.segment_blocks();
    pc.seed = 1 + shard_index;
    parts.policy = adapt::placement::make_baseline_policy("sepgc", pc);
  }
  parts.victim = adapt::lss::make_victim_policy("greedy");
  return parts;
}

/// Runs `op`, which must throw std::out_of_range exactly when the span is
/// invalid. Returns whether it applied.
template <typename Op>
bool apply_span_op(bool valid, Op&& op) {
  try {
    op();
  } catch (const std::out_of_range&) {
    if (valid) __builtin_trap();
    return false;
  }
  if (!valid) __builtin_trap();
  return true;
}

struct Harness {
  explicit Harness(bool adapt_policy)
      : config(fuzz_config()),
        single_parts(make_parts(adapt_policy, 0, config)),
        single(config, *single_parts.policy, *single_parts.victim, nullptr,
               1),
        sharded(config, kShards, 1,
                [adapt_policy](std::uint32_t i,
                               const adapt::lss::LssConfig& shard_cfg) {
                  return make_parts(adapt_policy, i, shard_cfg);
                }),
        single_oracle(config) {
    if (single_parts.hook != nullptr) {
      single.set_aggregation_hook(single_parts.hook);
    }
    for (std::uint32_t s = 0; s < kShards; ++s) {
      shard_oracles.emplace_back(sharded.per_shard_config());
    }
  }

  void write(Lba lba, std::uint32_t blocks) {
    const Lba L = config.logical_blocks;
    const bool valid = blocks <= L && lba <= L - blocks;
    if (apply_span_op(valid, [&] { single.write(lba, blocks, now); }) &&
        blocks > 0) {
      single_oracle.on_write(lba, blocks);
      single_oracle.verify_op(single, lba);
    }
    if (apply_span_op(valid, [&] { sharded.write(lba, blocks, now); }) &&
        blocks > 0) {
      for (Lba l = lba; l < lba + blocks; ++l) {
        shard_oracles[sharded.shard_of(l)].on_write(sharded.local_of(l), 1);
      }
      const std::uint32_t s = sharded.shard_of(lba);
      shard_oracles[s].verify_op(sharded.shard(s), sharded.local_of(lba));
    }
  }

  void read(Lba lba, std::uint32_t blocks) {
    const Lba L = config.logical_blocks;
    const bool valid = blocks <= L && lba <= L - blocks;
    apply_span_op(valid, [&] { single.read(lba, blocks, now); });
    apply_span_op(valid, [&] { sharded.read(lba, blocks, now); });
  }

  void verify_drained() {
    single_oracle.verify_drained(single);
    for (std::uint32_t s = 0; s < kShards; ++s) {
      shard_oracles[s].verify_drained(sharded.shard(s));
    }
  }

  adapt::lss::LssConfig config;
  adapt::lss::ShardParts single_parts;
  adapt::lss::LssEngine single;
  adapt::lss::ShardedEngine sharded;
  adapt::audit::OracleModel single_oracle;
  std::vector<adapt::audit::OracleModel> shard_oracles;
  TimeUs now = 0;
};

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  Tape tape(data, size);
  if (!tape.has(1)) return 0;
  Harness h(/*adapt_policy=*/(tape.u8() & 1) != 0);
  const std::uint32_t base_watermark =
      h.config.free_segment_reserve + h.single.group_count();

  for (std::size_t ops = 0; ops < kMaxOps && tape.has(1); ++ops) {
    const std::uint8_t op = tape.u8();
    const std::uint32_t kind = op % 8u;
    if (kind <= 3 || kind == 7) {
      if (!tape.has(1)) break;
      const std::uint8_t mode = tape.u8();
      const bool raw = kind == 7 || (mode & 0x80) != 0;
      if (!tape.has(raw ? 9 : 3)) break;
      const Lba lba =
          raw ? tape.le(8) : tape.le(2) % (h.config.logical_blocks + 32);
      const std::uint32_t blocks = tape.u8() % 17u;
      h.now += mode & 0x0fu;
      if (kind == 3) {
        h.read(lba, blocks);
      } else {
        h.write(lba, blocks);
      }
    } else if (kind == 4) {
      const std::uint32_t watermark = base_watermark + (op >> 3u) % 4u;
      h.single.gc_step(h.now, watermark);
      h.sharded.gc_step(h.now, watermark);
    } else if (kind == 5) {
      if (!tape.has(2)) break;
      h.now += tape.le(2);
      h.single.advance_time(h.now);
      h.sharded.advance_time(h.now);
    } else {
      h.single.flush_all();
      h.sharded.flush_all();
      h.verify_drained();
    }
  }

  h.single.flush_all();
  h.sharded.flush_all();
  h.verify_drained();
  h.single_oracle.verify_full(h.single);
  h.single.check_invariants(adapt::audit::Level::kFull);
  h.sharded.check_invariants(adapt::audit::Level::kFull);
  // Both stores saw the same valid ops: the same user blocks, the same
  // reads, and the same never-written blocks among them.
  const adapt::lss::LssMetrics a = h.single.metrics();
  const adapt::lss::LssMetrics b = h.sharded.merged_metrics();
  if (a.user_blocks != b.user_blocks || a.read_blocks != b.read_blocks ||
      a.read_unmapped != b.read_unmapped) {
    __builtin_trap();
  }
  return 0;
}

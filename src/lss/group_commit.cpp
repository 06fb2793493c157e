#include "lss/group_commit.h"

#include <algorithm>
#include <array>
#include <optional>
#include <stdexcept>

namespace adapt::lss {

namespace {

// Partitioning splits the array's arrival stream N ways, so each shard sees
// inter-write gaps ~N× longer than the unsharded engine would. The coalesce
// window models "how long a partial chunk waits for more user data before
// padding out"; keeping it fixed while arrival thins out N× turns routine
// gaps into deadline expiries and floods the device with padded flushes.
// Scale it by the shard count so the per-shard window represents the same
// aggregate wait. This is the prototype's choice: the simulator replays
// trace timestamps and keeps the configured window.
LssConfig scale_coalesce_window(LssConfig config, std::uint32_t shard_count) {
  config.coalesce_window_us *= shard_count;
  return config;
}

}  // namespace

ConcurrentEngine::ConcurrentEngine(const LssConfig& config,
                                   std::uint32_t shard_count,
                                   std::uint64_t base_seed,
                                   const ShardFactory& factory,
                                   bool record_ops)
    : sharded_(scale_coalesce_window(config, shard_count), shard_count,
               base_seed, factory),
      record_ops_(record_ops) {
  shards_.reserve(shard_count);
  for (std::uint32_t i = 0; i < shard_count; ++i) {
    Shard& sh = *shards_.emplace_back(std::make_unique<Shard>());
    sh.index = i;
    // Apply/durable split: every flush the engine performs is recorded in
    // the shard's collector; lead() and gc_step() drain it under the shard
    // lock and model durability outside.
    LockGuard g(sh.mu);
    engine(sh).set_flush_collector(&sh.flushes);
  }
}

template <typename Fn>
auto ConcurrentEngine::with_all_shards_locked(Fn&& fn) const {
  // Releases every lock even when fn() throws. Exempt from the analysis
  // for the same reason as the enclosing function.
  struct Unlocker {
    const std::vector<std::unique_ptr<Shard>>& shards;
    ~Unlocker() ADAPT_NO_THREAD_SAFETY_ANALYSIS {
      for (const std::unique_ptr<Shard>& sh : shards) sh->mu.unlock();
    }
  };
  for (const std::unique_ptr<Shard>& sh : shards_) sh->mu.lock();
  const Unlocker unlock_on_exit{shards_};
  return fn();
}

void ConcurrentEngine::set_trace_sink(std::uint32_t i, TraceSink* sink) {
  Shard& sh = *shards_.at(i);
  LockGuard g(sh.mu);
  sh.sink = sink;
  engine(sh).set_trace_sink(sink);
}

void ConcurrentEngine::write(Lba lba, std::uint32_t blocks, TimeUs submit_us) {
  sharded_.check_span(lba, blocks, /*is_write=*/true);
  if (blocks == 0) return;
  if (blocks == 1 || shard_count() == 1) {
    // Fast path: the op lands on one shard — every 1-block request, and
    // every request at one shard. The wave machinery below costs real wall
    // time per op at bench rates. One stack ticket, no arrays.
    Shard& sh = *shards_[sharded_.shard_of(lba)];
    WriteTicket t(sharded_.local_of(lba), blocks, submit_us);
    std::exception_ptr error;
    const WriteState st =
        sh.intake.link(&t) ? WriteState::kLeader : WriteIntake::await(&t);
    if (st == WriteState::kLeader) {
      try {
        lead(sh, &t);
      } catch (...) {
        error = std::current_exception();
      }
    } else if (st == WriteState::kAborted) {
      // Some earlier op in our batch made the leader's engine apply throw;
      // this op was never applied. The leader rethrows the original
      // exception on its own thread — here, surface the loss instead of
      // returning success.
      error = std::make_exception_ptr(WriteAborted{});
    }
    // Wait out this op's share of its batch's coalesced flush on THIS
    // thread — the leader stamped durable_us into every ticket before
    // publishing. An aborted op was never applied and owes no device time.
    if (durable_wait_ && st != WriteState::kAborted && t.durable_us > 0) {
      durable_wait_(t.durable_us);
    }
    if (error != nullptr) std::rethrow_exception(error);
    return;
  }
  // Striped span: link one ticket per touched shard, up to kWave at a
  // time, before any is awaited — submitting serially would pay one full
  // intake round trip per shard.
  constexpr std::uint32_t kWave = 8;
  std::array<std::optional<WriteTicket>, kWave> tickets;
  std::array<Shard*, kWave> owner{};
  std::uint32_t cnt = 0;
  TimeUs durable_us = 0;
  std::exception_ptr error;
  // Every linked ticket must reach a terminal state before the wave's
  // stack storage is reused (or the function unwinds). Poll ALL of them
  // rather than parking on one: a thread blocked on shard B while holding
  // a promoted leadership on shard A would stall A — and three such
  // threads can form a cross-shard leader-wait cycle that never resolves.
  const auto settle_wave = [&] {
    std::array<bool, kWave> terminal{};
    std::uint32_t pending = cnt;
    int spins = spin_budget(2048);
    while (pending > 0) {
      bool progressed = false;
      for (std::uint32_t k = 0; k < cnt; ++k) {
        if (terminal[k]) continue;
        const WriteState st =
            tickets[k]->state.load(std::memory_order_acquire);
        if (!is_terminal(st)) continue;
        if (st == WriteState::kLeader) {
          try {
            lead(*owner[k], &*tickets[k]);
          } catch (...) {
            error = std::current_exception();
          }
        } else if (st == WriteState::kAborted && error == nullptr) {
          // A sub-span was dropped by a failing batch on its shard; the
          // whole multi-shard op is only partially applied, so fail it.
          error = std::make_exception_ptr(WriteAborted{});
        }
        if (st != WriteState::kAborted) {
          durable_us = std::max(durable_us, tickets[k]->durable_us);
        }
        terminal[k] = true;
        --pending;
        progressed = true;
      }
      if (!progressed) {
        if (spins > 0) {
          --spins;
        } else {
          yield_now();
        }
      }
    }
    cnt = 0;
  };
  sharded_.for_each_subspan(
      lba, blocks, [&](std::uint32_t s, Lba local, std::uint32_t count) {
        if (error != nullptr) return;  // start no wave after a failure
        WriteTicket& t = tickets[cnt].emplace(local, count, submit_us);
        owner[cnt] = shards_[s].get();
        // Leadership won at link time is recorded via state: the poll
        // treats it exactly like a later promotion.
        if (owner[cnt]->intake.link(&t)) {
          t.state.store(WriteState::kLeader, std::memory_order_relaxed);
        }
        if (++cnt == kWave) settle_wave();
      });
  settle_wave();
  // One wait for the latest durable time over every batch this op rode in
  // (each leader stamped its batch's durable_us before publishing), run on
  // the submitting thread alone: follower completions above never stall on
  // the modeled flush.
  if (durable_wait_ && durable_us > 0) durable_wait_(durable_us);
  if (error != nullptr) std::rethrow_exception(error);
}

void ConcurrentEngine::lead(Shard& sh, WriteTicket* leader) {
  WriteTicket* const last = sh.intake.capture_group(leader);
  std::uint64_t batch_ops = 0;
  std::uint64_t batch_blocks = 0;
  std::uint64_t flushed_delta = 0;
  std::vector<PendingFlush> flushes;
  std::exception_ptr error;
  // First ticket whose op did NOT apply because the engine threw; it and
  // everything linked after it get published kAborted so their write()
  // calls fail instead of silently reporting lost writes as durable.
  WriteTicket* aborted_from = nullptr;
  // Applied milestone of the batch: the shard clock after the last applied
  // op (batch-granular — ops in one batch share the apply timestamp).
  TimeUs applied_us = 0;
  // Nonzero only while tracing: (shard << 40) | per-shard batch counter,
  // the causal-flow id correlating this batch's op, flush and lane events.
  std::uint64_t flow_id = 0;
  {
    LockGuard g(sh.mu);
    LssEngine& eng = engine(sh);
    const std::uint64_t chunks_before = eng.chunks_flushed();
    if (sh.sink != nullptr) {
      flow_id = (std::uint64_t{sh.index} << 40) | ++sh.batch_seq;
      eng.set_flow_id(flow_id);
    }
    WriteTicket* w = leader;
    try {
      for (;; w = w->link_newer.load(std::memory_order_relaxed)) {
        // Engine timestamps must be monotone per shard; arrival order and
        // submit-clock order can disagree under contention, so clamp. The
        // clamped value is what gets recorded — replay needs the ts that
        // was actually applied, not the one the client intended.
        const TimeUs ts = std::max(sh.last_ts, w->submit_us);
        sh.last_ts = ts;
        eng.write(w->lba, w->blocks, ts);
        w->joined_us = ts;
        if (record_ops_) {
          sh.log.push_back(
              RecordedOp{RecordedOp::Kind::kWrite, w->lba, w->blocks, ts, 0});
        }
        if (sh.sink != nullptr) {
          emit(sh.sink, TraceEvent{TraceEventKind::kOpSubmit,
                                   static_cast<GroupId>(sh.index),
                                   eng.vtime(), ts, w->lba, w->blocks,
                                   0, flow_id});
        }
        ++batch_ops;
        batch_blocks += w->blocks;
        if (w == last) break;
      }
    } catch (...) {
      // Keep the protocol alive on engine failure: followers must still be
      // released — the applied prefix completes normally, the rest aborts
      // (the original exception rethrows on this, the leader's, thread).
      error = std::current_exception();
      aborted_from = w;
    }
    applied_us = sh.last_ts;
    flushed_delta = eng.chunks_flushed() - chunks_before;
    // Drain the flush records this batch appended while still holding the
    // lock; the device submit happens OUTSIDE the critical section so the
    // next batch can apply while this one's durability is being modeled.
    if (!sh.flushes.empty()) {
      if (flush_submit_) {
        flushes.swap(sh.flushes);
      } else {
        sh.flushes.clear();
      }
    }
    if (sh.sink != nullptr) {
      emit(sh.sink,
           TraceEvent{TraceEventKind::kGroupCommit,
                      static_cast<GroupId>(sh.index), eng.vtime(),
                      sh.last_ts, batch_ops, batch_blocks, flushed_delta,
                      flow_id});
    }
  }
  sh.groups.fetch_add(1, std::memory_order_relaxed);
  sh.ops.fetch_add(batch_ops, std::memory_order_relaxed);
  std::uint64_t prev_max = sh.max_batch.load(std::memory_order_relaxed);
  while (prev_max < batch_ops &&
         !sh.max_batch.compare_exchange_weak(prev_max, batch_ops,
                                             std::memory_order_relaxed)) {
  }
  // Model durability outside every lock. Even a batch that failed mid-way
  // submits: the applied prefix's flushes hit the device before the engine
  // threw, and their modeled time must not vanish from the timeline.
  FlushOutcome outcome;
  if (flush_submit_ && !flushes.empty()) {
    outcome = flush_submit_(sh.index, flushes);
  }
  const TimeUs durable_us = outcome.durable_us;
  // Walk the batch BEFORE any completion is published: followers cannot
  // unwind until they observe a terminal state, so pre-publication ticket
  // access is lifetime-safe, and publish's release pairs with await's
  // acquire to make the durable stamp visible. Aborted tickets get stamped
  // too (harmless — their write() skips the wait) but are excluded from
  // the phase breakdown: they were never applied, so they have no
  // lifecycle to attribute.
  LatencyBreakdown batch_lat;
  {
    bool aborted = false;
    for (WriteTicket* w = leader;;
         w = w->link_newer.load(std::memory_order_relaxed)) {
      if (w == aborted_from) aborted = true;
      if (durable_us > 0) w->durable_us = durable_us;
      if (!aborted) {
        batch_lat.add_op(w->submit_us, w->joined_us, applied_us, durable_us,
                         outcome.service_us);
      }
      if (w == last) break;
    }
  }
  if (batch_ops > 0) {
    {
      LockGuard g(sh.lat_mu);
      sh.breakdown.merge_from(batch_lat);
    }
    if (batch_hook_) {
      batch_hook_(BatchSample{sh.index, batch_ops, batch_blocks, batch_lat});
    }
  }
  // Emit per-op durability events under the re-acquired shard lock (the
  // per-shard ring is unsynchronised); still pre-publication, so every
  // ticket is alive. Traced runs pay this second lock hop; untraced runs
  // skip it entirely.
  if (flow_id != 0 && durable_us > 0) {
    LockGuard g(sh.mu);
    const VTime vtime = engine(sh).vtime();
    bool aborted = false;
    for (WriteTicket* w = leader;;
         w = w->link_newer.load(std::memory_order_relaxed)) {
      if (w == aborted_from) aborted = true;
      if (!aborted && sh.sink != nullptr) {
        emit(sh.sink, TraceEvent{TraceEventKind::kOpDurable,
                                 static_cast<GroupId>(sh.index), vtime,
                                 durable_us, w->lba,
                                 w->blocks, durable_us, flow_id});
      }
      if (w == last) break;
    }
  }
  // Hand off leadership immediately: the next batch can apply into the
  // engine the moment this one leaves the critical section.
  sh.intake.exit_group(last);
  // Publish completions oldest-to-newest, reading each link BEFORE the
  // store: a completed follower's stack frame — ticket included — can
  // vanish immediately. Never read or follow last->link_newer here —
  // exit_group may have pointed it at the promoted next leader, which is
  // not ours to complete (a size-1 batch has no followers at all). Each
  // op runs its own durable wait AFTER its ticket publishes, so
  // completions are never delayed by the modeled flush.
  if (leader != last) {
    bool aborted = (aborted_from == leader);
    WriteTicket* w = leader->link_newer.load(std::memory_order_relaxed);
    while (w != nullptr) {
      WriteTicket* const next =
          (w == last) ? nullptr
                      : w->link_newer.load(std::memory_order_relaxed);
      if (w == aborted_from) aborted = true;
      WriteIntake::publish(
          w, aborted ? WriteState::kAborted : WriteState::kCompleted);
      w = next;
    }
  }
  if (error != nullptr) std::rethrow_exception(error);
}

bool ConcurrentEngine::gc_step(std::uint32_t i, TimeUs now_us,
                               std::uint32_t watermark,
                               std::uint64_t* flushed_chunks,
                               std::vector<PendingFlush>* flushes) {
  Shard& sh = *shards_.at(i);
  LockGuard g(sh.mu);
  LssEngine& eng = engine(sh);
  // GC flushes are not part of any batch's causal flow; clear the stale
  // flow id a previous traced batch left on the engine.
  if (sh.sink != nullptr) eng.set_flow_id(0);
  const TimeUs ts = std::max(sh.last_ts, now_us);
  const std::uint64_t chunks_before = eng.chunks_flushed();
  // A false step mutates nothing (GcController::step checks the watermark
  // before run_once), so only steps that worked enter the linearized log.
  if (!eng.gc_step(ts, watermark)) {
    if (flushed_chunks != nullptr) *flushed_chunks = 0;
    return false;
  }
  if (flushed_chunks != nullptr) {
    *flushed_chunks = eng.chunks_flushed() - chunks_before;
  }
  // Hand the pass's flush records to the GC thread (it submits them to the
  // device model itself — there are no write tickets to stamp); drained
  // either way so the collector never grows across passes.
  if (flushes != nullptr) {
    // Swap (after clearing the caller's scratch) instead of copying: the
    // shard inherits the scratch vector's capacity, so a GC loop reusing
    // one vector allocates nothing in steady state.
    flushes->clear();
    flushes->swap(sh.flushes);
  } else {
    sh.flushes.clear();
  }
  sh.last_ts = ts;
  if (record_ops_) {
    sh.log.push_back(
        RecordedOp{RecordedOp::Kind::kGcStep, 0, 0, ts, watermark});
  }
  return true;
}

void ConcurrentEngine::flush_all() {
  for (const std::unique_ptr<Shard>& shard : shards_) {
    Shard& sh = *shard;
    LockGuard g(sh.mu);
    // End-of-run pad flushes belong to no batch; drop any stale flow id.
    if (sh.sink != nullptr) engine(sh).set_flow_id(0);
    engine(sh).flush_all();
    // The final drain is a quiesced-only bookkeeping pass; nobody is
    // measuring per-op durability any more, so just empty the collector.
    sh.flushes.clear();
    if (record_ops_) {
      sh.log.push_back(
          RecordedOp{RecordedOp::Kind::kFlushAll, 0, 0, sh.last_ts, 0});
    }
  }
}

LssMetrics ConcurrentEngine::merged_metrics() const {
  return with_all_shards_locked([&] { return sharded_.merged_metrics(); });
}

std::uint64_t ConcurrentEngine::merged_pending_blocks() const {
  return with_all_shards_locked(
      [&] { return sharded_.merged_pending_blocks(); });
}

std::size_t ConcurrentEngine::policy_memory_bytes() const {
  return with_all_shards_locked(
      [&] { return sharded_.policy_memory_bytes(); });
}

void ConcurrentEngine::check_invariants(audit::Level level) const {
  with_all_shards_locked([&] { sharded_.check_invariants(level); });
}

GroupCommitStats ConcurrentEngine::shard_stats(std::uint32_t i) const {
  const Shard& sh = *shards_.at(i);
  return GroupCommitStats{sh.groups.load(std::memory_order_relaxed),
                          sh.ops.load(std::memory_order_relaxed),
                          sh.max_batch.load(std::memory_order_relaxed)};
}

GroupCommitStats ConcurrentEngine::merged_stats() const {
  GroupCommitStats merged;
  for (std::uint32_t i = 0; i < shard_count(); ++i) {
    const GroupCommitStats s = shard_stats(i);
    merged.groups += s.groups;
    merged.ops += s.ops;
    merged.max_batch = std::max(merged.max_batch, s.max_batch);
  }
  return merged;
}

LatencyBreakdown ConcurrentEngine::latency_breakdown() const {
  LatencyBreakdown merged;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    LockGuard g(shard->lat_mu);
    merged.merge_from(shard->breakdown);
  }
  return merged;
}

std::vector<RecordedOp> ConcurrentEngine::recorded_ops(std::uint32_t i) const {
  Shard& sh = *shards_.at(i);
  LockGuard g(sh.mu);
  return sh.log;
}

void ConcurrentEngine::replay_log(LssEngine& engine,
                                  const std::vector<RecordedOp>& log) {
  for (const RecordedOp& op : log) {
    switch (op.kind) {
      case RecordedOp::Kind::kWrite:
        engine.write(op.lba, op.blocks, op.ts_us);
        break;
      case RecordedOp::Kind::kGcStep:
        if (!engine.gc_step(op.ts_us, op.watermark)) {
          throw std::logic_error(
              "replay_log: recorded GC step did no work on replay");
        }
        break;
      case RecordedOp::Kind::kFlushAll:
        engine.flush_all();
        break;
    }
  }
}

}  // namespace adapt::lss

// Lock-free MPSC group-commit front-end over LBA-sharded LssEngines.
//
// This is the prototype's live concurrent write path: client threads do
// not serialize per-op on one mutex; they link write tickets onto a
// per-shard lock-free intake list and one of them — the *group leader* —
// applies the whole linked batch against the shard's engine in a single
// critical section, then publishes per-op completion. The shape follows
// the RocksDB/FrozenHot LoggingServer writer group (SNIPPETS.md #2/#3):
//
//   1. link():   CAS-push the ticket onto the shard's newest_ list head.
//                The thread that installs the head onto an EMPTY list is
//                the leader; everyone else is a follower.
//   2. capture_group(): the leader snapshots newest_ and back-fills the
//                link_newer pointers (the CAS push only writes link_older),
//                fixing the batch as [leader .. last].
//   3. apply:    the leader takes the shard mutex once and applies every
//                ticket in link order — oldest first, so the linearized
//                order is exactly arrival order — against the LssEngine.
//   4. exit_group(): CAS newest_ from `last` back to nullptr; if new
//                tickets arrived meanwhile, the oldest of them is promoted
//                to leader of the next batch (its link_older is severed
//                first so a later walk never crosses into the dying batch).
//   5. complete(): the leader marks each follower kCompleted — or
//                kAborted from the first not-applied ticket on, when the
//                engine threw mid-batch — *after* reading its link_newer:
//                tickets live on follower stacks and may be destroyed the
//                instant they complete. Before publishing, the leader
//                submits the batch's drained flush records to the device
//                model (OUTSIDE the shard lock) and stamps the modeled
//                durable time into every ticket, so each op — leader and
//                followers alike — waits out its own share of the
//                coalesced flush on its own thread (see set_device_model):
//                a batch never serializes its followers behind a modeled
//                sleep, and no op's latency silently excludes its device
//                time.
//
// Determinism contract (the oracle): a shard's final state is a pure
// function of its (op, lba, blocks, ts) sequence. The leader records every
// applied op — user writes, GC steps that did work, and the final drain —
// in apply order while holding the shard mutex. Replaying that recorded log
// through a fresh serial engine built from the same factory and seed must
// reproduce the concurrent shard's final state and deterministic metrics
// bit-exactly; tests/concurrent_commit_test.cpp proves it. Thread
// scheduling may change *which* order gets recorded, never whether the
// recorded order explains the result.
//
// Concurrency: the intake list is the only lock-free piece; everything
// behind it is the ordinary single-threaded engine guarded by the shard
// mutex (held only by the current leader, so in steady state it is
// uncontended — taken once per batch, not once per op).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <vector>

#include "common/annotations.h"
#include "common/sync.h"
#include "common/types.h"
#include "lss/engine.h"
#include "lss/op_timeline.h"
#include "lss/sharded_engine.h"

namespace adapt::lss {

/// Ticket lifecycle: linked (kInit) -> optionally parked by its owner
/// (kLockedWaiting, the RocksDB WriteThread "locked waiting" state) -> a
/// terminal state published by the current leader: promoted to lead the
/// next batch (kLeader), applied (kCompleted), or not applied because the
/// leader's engine apply threw earlier in the batch (kAborted).
enum class WriteState : std::uint8_t {
  kInit = 0,
  /// Owner-only intermediate: the waiter CASed itself here before parking
  /// on the ticket's condvar, so publish() knows it must store + notify
  /// under the ticket mutex instead of the lock-free CAS.
  kLockedWaiting = 1,
  kLeader = 2,
  kCompleted = 3,
  kAborted = 4,
};

/// True for the states a published ticket can end in — what await() and
/// the wave poll in ConcurrentEngine::write wait for.
constexpr bool is_terminal(WriteState s) noexcept {
  return s == WriteState::kLeader || s == WriteState::kCompleted ||
         s == WriteState::kAborted;
}

/// Thrown by ConcurrentEngine::write on a thread whose op was NOT applied
/// because the batch leader's engine apply threw earlier in the batch (the
/// original exception surfaces on the leader's own thread). Ops already
/// applied before the failure still complete normally — at-most-once
/// semantics per op, never silent loss.
class WriteAborted : public std::runtime_error {
 public:
  WriteAborted()
      : std::runtime_error(
            "group commit aborted: the batch leader's engine apply failed "
            "before this op was applied") {}
};

/// One in-flight write op. Lives on the submitting thread's stack for the
/// duration of the call; the intake links tickets, never owns them.
struct WriteTicket {
  WriteTicket(Lba lba_in, std::uint32_t blocks_in, TimeUs submit_in) noexcept
      : lba(lba_in), blocks(blocks_in), submit_us(submit_in) {}

  WriteTicket(const WriteTicket&) = delete;
  WriteTicket& operator=(const WriteTicket&) = delete;

  Lba lba;                  ///< shard-local address
  std::uint32_t blocks;
  TimeUs submit_us;         ///< simulated submit timestamp (monotonised
                            ///< per shard by the leader before applying)
  /// Modeled durable time of this op's batch, stamped by the LEADER before
  /// the ticket is published (pre-publication stores are lifetime-safe —
  /// the owner cannot unwind until it observes a terminal state — and
  /// publish's release CAS/store pairs with await's acquire load, so the
  /// stamp is visible to the waiter). 0 when the batch flushed nothing.
  /// Every non-aborted op waits this out on its OWN thread: the coalesced
  /// flush is charged to each op in the batch, never absorbed by the
  /// leader alone.
  TimeUs durable_us = 0;
  /// The per-shard-monotonised timestamp the LEADER applied this op at —
  /// the op's "joined" milestone for the phase breakdown. Leader-only
  /// storage: written and read exclusively by the current leader between
  /// capture_group and publish, while the ticket is pinned on its owner's
  /// stack, so no synchronisation is needed beyond the publish fence.
  TimeUs joined_us = 0;
  WriteTicket* link_older = nullptr;              ///< set once by link()
  std::atomic<WriteTicket*> link_newer{nullptr};  ///< back-filled by leader
  std::atomic<WriteState> state{WriteState::kInit};
  /// Parking for await(): the waiter blocks on its OWN ticket's condvar,
  /// but only after CASing state to kLockedWaiting. publish() takes this
  /// mutex only when it sees that parked state (otherwise it publishes
  /// with a plain CAS and never touches the ticket again), so the mutex
  /// is touched by the publisher exclusively while the owner is committed
  /// to reacquiring it before unwinding — the ticket's stack frame cannot
  /// vanish under the publisher's store/notify/unlock.
  Mutex mu;
  CondVar cv;
};

/// The per-shard lock-free MPSC intake list. Thread-safe: any number of
/// producers may link() concurrently; exactly one thread at a time (the
/// current leader) runs capture_group/exit_group.
class WriteIntake {
 public:
  WriteIntake() = default;
  WriteIntake(const WriteIntake&) = delete;
  WriteIntake& operator=(const WriteIntake&) = delete;

  /// Pushes `w` onto the list. Returns true when the list was empty —
  /// the caller just became group leader. The release CAS publishes the
  /// ticket's payload fields to the leader's acquire load of newest_.
  bool link(WriteTicket* w) noexcept {
    WriteTicket* old = newest_.load(std::memory_order_relaxed);
    while (true) {
      w->link_older = old;
      if (newest_.compare_exchange_weak(old, w, std::memory_order_release,
                                        std::memory_order_relaxed)) {
        return old == nullptr;
      }
    }
  }

  /// Leader only. Snapshots the current list as this batch and back-fills
  /// link_newer pointers from the snapshot down to `leader`, so the batch
  /// can be walked oldest-to-newest. Returns the batch's newest ticket.
  WriteTicket* capture_group(WriteTicket* leader) noexcept {
    WriteTicket* newest = newest_.load(std::memory_order_acquire);
    create_missing_newer_links(newest);
    (void)leader;
    return newest;
  }

  /// Leader only, after the batch [leader .. last] has been applied and
  /// its followers are about to be completed. If no newer ticket arrived,
  /// resets the list (returns nullptr). Otherwise promotes the oldest
  /// post-batch ticket to leader of the next group and returns it.
  WriteTicket* exit_group(WriteTicket* last) noexcept {
    WriteTicket* expected = last;
    if (newest_.compare_exchange_strong(expected, nullptr,
                                        std::memory_order_acq_rel,
                                        std::memory_order_acquire)) {
      return nullptr;
    }
    // Newer tickets exist; `expected` is the current newest. Build the
    // newer-links down to `last`, then hand leadership to last's newer
    // neighbour. Sever its link_older FIRST so no later walk (from a yet
    // newer ticket) can cross into this batch once its tickets start
    // completing and vanishing.
    create_missing_newer_links(expected);
    WriteTicket* next_leader = last->link_newer.load(std::memory_order_relaxed);
    next_leader->link_older = nullptr;
    publish(next_leader, WriteState::kLeader);
    return next_leader;
  }

  /// Moves `w` to a terminal state and wakes its owner if parked —
  /// RocksDB's WriteThread::SetState shape. Fast path: CAS kInit ->
  /// terminal; on success the publisher never touches the ticket again,
  /// so an owner that observes the state from await()'s spin (or the
  /// wave poll in ConcurrentEngine::write) may unwind and destroy the
  /// ticket immediately — there is no trailing notify/unlock racing the
  /// destruction. Slow path: the CAS can only fail because the owner
  /// CASed itself to kLockedWaiting, committing to reacquire w->mu
  /// before unwinding; storing + notifying under that mutex is therefore
  /// lifetime-safe. Do not touch `w` after this returns.
  static void publish(WriteTicket* w, WriteState terminal) noexcept {
    WriteState expected = w->state.load(std::memory_order_relaxed);
    if (expected == WriteState::kLockedWaiting ||
        !w->state.compare_exchange_strong(expected, terminal,
                                          std::memory_order_release,
                                          std::memory_order_relaxed)) {
      // The only other writer of state is the owner parking itself.
      LockGuard g(w->mu);
      w->state.store(terminal, std::memory_order_release);
      w->cv.notify_one();
    }
  }

  /// Follower wait: bounded spin (skipped entirely on a single-core host,
  /// where spinning starves the leader — see spin_budget), then CAS into
  /// kLockedWaiting and park on the ticket's own condvar until the
  /// current leader completes, aborts, or promotes this ticket — a parked
  /// follower costs the scheduler nothing, unlike a yield loop cycling
  /// the run queue. If the CAS loses, the leader already published; the
  /// failed CAS's loaded value IS the terminal state. Returns the
  /// terminal state observed.
  static WriteState await(WriteTicket* w) noexcept {
    for (int spin = spin_budget(2048); spin > 0; --spin) {
      const WriteState s = w->state.load(std::memory_order_acquire);
      if (s != WriteState::kInit) return s;
    }
    WriteState expected = WriteState::kInit;
    if (!w->state.compare_exchange_strong(expected,
                                          WriteState::kLockedWaiting,
                                          std::memory_order_acq_rel,
                                          std::memory_order_acquire)) {
      return expected;
    }
    LockGuard g(w->mu);
    while (true) {
      const WriteState s = w->state.load(std::memory_order_acquire);
      if (is_terminal(s)) return s;
      w->cv.wait(w->mu, g);
    }
  }

 private:
  /// Walks link_older from `newest`, setting each older ticket's
  /// link_newer, stopping at the first ticket that already has one (or at
  /// the batch head, whose link_older is nullptr). Called only by the
  /// (single) current leader.
  static void create_missing_newer_links(WriteTicket* newest) noexcept {
    WriteTicket* head = newest;
    while (true) {
      WriteTicket* older = head->link_older;
      if (older == nullptr ||
          older->link_newer.load(std::memory_order_relaxed) != nullptr) {
        break;
      }
      older->link_newer.store(head, std::memory_order_relaxed);
      head = older;
    }
  }

  std::atomic<WriteTicket*> newest_{nullptr};
};

/// One op in a shard's linearized log, recorded by the leader in apply
/// order. Replaying the log serially reproduces the shard bit-exactly.
struct RecordedOp {
  enum class Kind : std::uint8_t { kWrite, kGcStep, kFlushAll };
  Kind kind = Kind::kWrite;
  Lba lba = 0;               ///< shard-local (kWrite)
  std::uint32_t blocks = 0;  ///< kWrite
  TimeUs ts_us = 0;          ///< monotonised timestamp actually applied
  std::uint32_t watermark = 0;  ///< kGcStep
};

/// Group-commit counters for one shard (or merged across shards).
struct GroupCommitStats {
  std::uint64_t groups = 0;     ///< batches led
  std::uint64_t ops = 0;        ///< tickets applied across all batches
  std::uint64_t max_batch = 0;  ///< largest single batch (tickets)
};

/// The concurrent front-end: a ShardedEngine — the simulator's shard layer,
/// with its geometry division, base_seed + i seeding, factory contract and
/// merges — whose every shard is fronted by a WriteIntake and a Mutex held
/// only by that shard's current group leader.
///
/// Partitioning is ShardedEngine's modulo striping (lba l lives on shard
/// l % N at local address l / N); there is no second law. Every op of the
/// prototype's YCSB clients is a 1-block request, so each op still lands
/// on exactly one shard and pays one intake rendezvous, as it would under
/// range partitioning — which the simulator cannot use: it would put a
/// small cloud volume, and with it every hot block, on one shard (DESIGN.md
/// "Engine decomposition & sharding"). A multi-block request is split per
/// shard and every touched shard's ticket is linked before any is awaited
/// (see write()).
///
/// write() and gc_step() are thread-safe. The merged observers
/// (merged_metrics, recorded_ops, ...) take the shard locks but are meant
/// for a quiesced engine — call them after joining the client threads.
class ConcurrentEngine {
 public:
  /// `record_ops` keeps the per-shard linearized op log for the
  /// differential oracle; benches turn it off to avoid the append cost.
  ConcurrentEngine(const LssConfig& config, std::uint32_t shard_count,
                   std::uint64_t base_seed, const ShardFactory& factory,
                   bool record_ops = true);

  ConcurrentEngine(const ConcurrentEngine&) = delete;
  ConcurrentEngine& operator=(const ConcurrentEngine&) = delete;

  std::uint32_t shard_count() const noexcept {
    return sharded_.shard_count();
  }
  std::uint64_t logical_blocks() const noexcept {
    return sharded_.logical_blocks();
  }
  const LssConfig& per_shard_config() const noexcept {
    return sharded_.per_shard_config();
  }

  /// Submits one batch's drained flush records to a device model (e.g.
  /// DeviceLanes::submit) and returns the modeled FlushOutcome: the time
  /// at which the LAST of them is durable plus that flush's pure device
  /// service time (splitting lane queueing from media time in the phase
  /// breakdown). Called by the batch leader OUTSIDE every shard lock; must
  /// be thread-safe.
  using FlushSubmitFn = std::function<FlushOutcome(
      std::uint32_t shard, const std::vector<PendingFlush>& flushes)>;
  /// Blocks the calling op's thread until the modeled durable time (e.g.
  /// the prototype sleeps the gap between its wall clock and durable_us).
  /// Called once per non-aborted op whose batch flushed, on that op's own
  /// thread; must be thread-safe.
  using DurableWaitFn = std::function<void(TimeUs durable_us)>;

  /// Device-model hooks, replacing the old leader-absorbs-the-wait flush
  /// hook. The leader submits the batch's flushes once (outside the shard
  /// lock, before follower completions are published) and stamps the
  /// returned durable time into every ticket of the batch; each op then
  /// runs `wait` on its OWN thread. Leader and follower submit→durable
  /// latencies therefore both include their share of the coalesced flush
  /// (the follower-latency regression test in
  /// tests/concurrent_commit_test.cpp pins it). Set both hooks before the
  /// first write, or neither.
  void set_device_model(FlushSubmitFn submit, DurableWaitFn wait) {
    flush_submit_ = std::move(submit);
    durable_wait_ = std::move(wait);
  }

  /// Attaches a trace sink to shard `i` (engine events + kGroupCommit
  /// batch events + per-op kOpSubmit/kOpDurable lifecycle events).
  /// Emission happens under the shard lock, so an unsynchronised per-shard
  /// ring is safe, mirroring ShardedEngine.
  void set_trace_sink(std::uint32_t i, TraceSink* sink);

  /// Installs a live-stats hook called by every batch leader right after
  /// the batch's durable time is known (outside every engine lock) with
  /// that batch's BatchSample. The hook must be thread-safe — leaders of
  /// different shards call it concurrently. Set before the first write,
  /// like set_device_model; nullptr-able by assigning {}.
  void set_batch_hook(std::function<void(const BatchSample&)> hook) {
    batch_hook_ = std::move(hook);
  }

  /// Thread-safe group-commit write of `blocks` consecutive global blocks
  /// at `lba`. A 1-block op (or any op at one shard) lands on a single
  /// shard; a longer span is striped over several, and every touched
  /// shard's ticket is linked BEFORE any is awaited, so the sub-writes
  /// commit in parallel instead of paying one intake round trip per shard.
  /// Throws std::out_of_range when the span leaves the logical space
  /// (ShardedEngine::check_span). Returns
  /// once every sub-span has been applied and this op has waited out the
  /// modeled durable time of every batch it rode in (its durable share of
  /// the coalesced flushes). Failure contract: if the engine
  /// throws while a leader applies a batch, the leader's thread rethrows
  /// the engine's exception, and every caller whose op was NOT applied
  /// (the failing op and everything linked after it in that batch) throws
  /// WriteAborted instead of returning success — an op that returns
  /// normally was applied, an op that throws was not (at-most-once).
  void write(Lba lba, std::uint32_t blocks, TimeUs submit_us);

  /// Thread-safe proactive GC pass on shard `i`. Returns true when the
  /// pass migrated work (and was therefore recorded in the shard log).
  /// When `flushed_chunks` is non-null it receives the number of chunks
  /// the pass flushed. When `flushes` is non-null it receives the drained
  /// flush records of the pass, so the GC thread can submit them to the
  /// device model itself (a GC pass has no write tickets to stamp).
  bool gc_step(std::uint32_t i, TimeUs now_us, std::uint32_t watermark,
               std::uint64_t* flushed_chunks = nullptr,
               std::vector<PendingFlush>* flushes = nullptr);

  /// Quiesced-only: pads out every partial chunk on every shard and
  /// records the drain in each shard log.
  void flush_all();

  // -- quiesced observers ---------------------------------------------------

  // Each takes every shard lock, in index order, then calls the matching
  // ShardedEngine merge.
  LssMetrics merged_metrics() const;
  std::uint64_t merged_pending_blocks() const;
  std::size_t policy_memory_bytes() const;
  void check_invariants(audit::Level level) const;

  GroupCommitStats shard_stats(std::uint32_t i) const;
  GroupCommitStats merged_stats() const;

  /// Merged phase-attributed latency over every shard's committed batches
  /// (virtual-time microseconds; see lss/op_timeline.h for the identity).
  /// Takes each shard's stats mutex, not the shard lock — safe to call
  /// concurrently with writers, though meant for post-run export.
  LatencyBreakdown latency_breakdown() const;

  /// Copy of shard `i`'s linearized op log (empty when record_ops=false).
  std::vector<RecordedOp> recorded_ops(std::uint32_t i) const;

  /// Read-only access to shard `i`'s engine for final-state comparison.
  /// Quiesced-only: reads the engine without taking its shard lock.
  const LssEngine& shard_for_inspection(std::uint32_t i) const {
    return sharded_.shard(i);
  }

  /// Serial oracle replay: applies `log` to `engine` exactly as the
  /// concurrent path recorded it. The engine must be freshly built from
  /// the same factory, per-shard config, and seed as the shard that
  /// produced the log.
  static void replay_log(LssEngine& engine,
                         const std::vector<RecordedOp>& log);

 private:
  /// Lock-side state of one shard. The shard's engine lives in sharded_
  /// and is reached only through engine(), which requires `mu`.
  struct Shard {
    std::uint32_t index = 0;
    Mutex mu;
    WriteIntake intake;
    TimeUs last_ts ADAPT_GUARDED_BY(mu) = 0;
    /// Flush records appended by the engine's chunk writer (the collector
    /// attached in the ctor) since the last drain. Every batch and GC pass
    /// drains it while still holding the shard lock, so it holds at most
    /// one batch's worth of records.
    std::vector<PendingFlush> flushes ADAPT_GUARDED_BY(mu);
    std::vector<RecordedOp> log ADAPT_GUARDED_BY(mu);
    TraceSink* sink ADAPT_GUARDED_BY(mu) = nullptr;
    /// Monotone per-shard batch counter; combined with the shard index it
    /// forms the batch's nonzero causal-flow id.
    std::uint64_t batch_seq ADAPT_GUARDED_BY(mu) = 0;
    std::atomic<std::uint64_t> groups{0};
    std::atomic<std::uint64_t> ops{0};
    std::atomic<std::uint64_t> max_batch{0};
    /// Phase-attributed latency of this shard's committed batches. Guarded
    /// by its own mutex (not `mu`) so latency export never contends the
    /// apply path's critical section.
    mutable Mutex lat_mu;
    LatencyBreakdown breakdown ADAPT_GUARDED_BY(lat_mu);
  };

  /// The only way to reach a shard's engine while clients may be running.
  LssEngine& engine(Shard& sh) ADAPT_REQUIRES(sh.mu) {
    return sharded_.shard(sh.index);
  }

  /// Runs fn() with every shard lock held, taken in index order. No other
  /// path holds two shard locks, so the order cannot invert. The analysis
  /// cannot name a lock set whose size is known only at run time, hence
  /// the escape hatch.
  template <typename Fn>
  auto with_all_shards_locked(Fn&& fn) const ADAPT_NO_THREAD_SAFETY_ANALYSIS;

  /// Leader protocol: capture batch, apply under the shard lock, drain the
  /// batch's flush records, submit them to the device model OUTSIDE the
  /// lock, stamp the modeled durable time into every batch ticket, hand
  /// off leadership, publish completions. The durable WAIT must NOT happen
  /// here — each op (this leader included) runs it from write() on its own
  /// thread, or every follower would serialize behind the leader's sleep.
  void lead(Shard& sh, WriteTicket* leader);

  ShardedEngine sharded_;
  bool record_ops_ = true;
  FlushSubmitFn flush_submit_;
  DurableWaitFn durable_wait_;
  std::function<void(const BatchSample&)> batch_hook_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace adapt::lss

// Span recorder for the benchmark's traced run.
//
// Every call the benchmark makes into a layer boundary is bracketed by a
// Scope. The recorder keeps exact per-boundary call counts, total span ns
// and self ns (span minus the spans nested directly inside it) for every
// call, and full span records (name, start, end, parent, record id) for a
// sampled 1-in-N subset of top-level records. Sampled spans stay in memory
// until to_json() at exit.
#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

enum class Layer : std::uint8_t {
  kWrite,          ///< LssEngine::write
  kRead,           ///< LssEngine::read
  kFlushAll,       ///< LssEngine::flush_all
  kPlaceUser,      ///< PlacementPolicy::place_user_write
  kPlaceGc,        ///< PlacementPolicy::place_gc_rewrite
  kPolicyNote,     ///< PlacementPolicy::note_segment_{sealed,reclaimed}
  kDeadline,       ///< AggregationHook::on_chunk_deadline
  kVictimSelect,   ///< VictimPolicy::select
  kVictimNotify,   ///< VictimPolicy::on_seal / on_valid_delta / on_free
  kCount,
};

std::string_view layer_name(Layer layer);

struct LayerTotals {
  std::uint64_t calls = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t self_ns = 0;
};

struct SpanRecord {
  Layer layer = Layer::kWrite;
  std::uint64_t start_ns = 0;  ///< since the recorder was created
  std::uint64_t end_ns = 0;
  std::int64_t parent = -1;    ///< index into spans(), -1 for a root
  std::uint64_t record = 0;    ///< top-level record id the span belongs to
};

class SpanRecorder {
 public:
  /// Keeps full spans for records whose id is a multiple of
  /// `sample_every`, up to `max_spans` records in total.
  SpanRecorder(std::uint64_t sample_every, std::size_t max_spans);

  /// Starts a new top-level record (one replayed op or one flush_all).
  void begin_record() noexcept {
    ++record_;
    sampled_ = record_ % sample_every_ == 0 && spans_.size() < max_spans_;
  }

  class Scope {
   public:
    Scope(SpanRecorder& rec, Layer layer) noexcept : rec_(rec) {
      rec_.enter(layer);
    }
    ~Scope() { rec_.exit(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder& rec_;
  };

  /// Self ns of the most recently closed span.
  std::uint64_t last_self_ns() const noexcept { return last_self_ns_; }

  const LayerTotals& totals(Layer layer) const {
    return totals_[static_cast<std::size_t>(layer)];
  }
  const std::vector<SpanRecord>& spans() const noexcept { return spans_; }

  /// Writes the sampled spans as a Chrome trace-event JSON document whose
  /// otherData block carries `stamp` key/value pairs.
  std::string to_json(
      const std::vector<std::pair<std::string, std::string>>& stamp) const;

 private:
  struct Frame {
    Layer layer;
    std::uint64_t start_ns;
    std::uint64_t child_ns;
    std::int64_t span_index;
  };
  static constexpr std::size_t kMaxDepth = 16;

  std::uint64_t now_ns() const noexcept {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - origin_)
            .count());
  }
  void enter(Layer layer) noexcept;
  void exit() noexcept;

  std::chrono::steady_clock::time_point origin_ =
      std::chrono::steady_clock::now();
  std::uint64_t sample_every_;
  std::size_t max_spans_;
  std::uint64_t record_ = 0;
  bool sampled_ = false;
  std::array<Frame, kMaxDepth> stack_{};
  std::size_t depth_ = 0;
  std::uint64_t last_self_ns_ = 0;
  std::array<LayerTotals, static_cast<std::size_t>(Layer::kCount)> totals_{};
  std::vector<SpanRecord> spans_;
};

}  // namespace perfbench

#include "spans.h"

#include <cstdio>
#include <exception>

namespace perfbench {

std::string_view layer_name(Layer layer) {
  switch (layer) {
    case Layer::kWrite: return "lss.write";
    case Layer::kRead: return "lss.read";
    case Layer::kFlushAll: return "lss.flush_all";
    case Layer::kPlaceUser: return "placement.place_user_write";
    case Layer::kPlaceGc: return "placement.place_gc_rewrite";
    case Layer::kPolicyNote: return "placement.note_segment";
    case Layer::kDeadline: return "adapt.deadline";
    case Layer::kVictimSelect: return "lss.victim.select";
    case Layer::kVictimNotify: return "lss.victim.notify";
    case Layer::kCount: break;
  }
  return "unknown";
}

SpanRecorder::SpanRecorder(std::uint64_t sample_every, std::size_t max_spans)
    : sample_every_(sample_every == 0 ? 1 : sample_every),
      max_spans_(max_spans) {
  spans_.reserve(max_spans_ < 65536 ? max_spans_ : 65536);
}

void SpanRecorder::enter(Layer layer) noexcept {
  // No engine call path nests this deep; reaching it is a benchmark bug.
  if (depth_ == kMaxDepth) std::terminate();
  std::int64_t index = -1;
  if (sampled_) {
    index = static_cast<std::int64_t>(spans_.size());
    const std::int64_t parent =
        depth_ == 0 ? -1 : stack_[depth_ - 1].span_index;
    spans_.push_back(SpanRecord{layer, 0, 0, parent, record_});
  }
  const std::uint64_t start = now_ns();
  if (index >= 0) spans_[static_cast<std::size_t>(index)].start_ns = start;
  stack_[depth_++] = Frame{layer, start, 0, index};
}

void SpanRecorder::exit() noexcept {
  const std::uint64_t end = now_ns();
  const Frame frame = stack_[--depth_];
  const std::uint64_t span = end - frame.start_ns;
  const std::uint64_t self =
      span > frame.child_ns ? span - frame.child_ns : 0;
  LayerTotals& t = totals_[static_cast<std::size_t>(frame.layer)];
  ++t.calls;
  t.total_ns += span;
  t.self_ns += self;
  last_self_ns_ = self;
  if (depth_ > 0) stack_[depth_ - 1].child_ns += span;
  if (frame.span_index >= 0) {
    spans_[static_cast<std::size_t>(frame.span_index)].end_ns = end;
  }
}

std::string SpanRecorder::to_json(
    const std::vector<std::pair<std::string, std::string>>& stamp) const {
  std::string out = "{\"traceEvents\":[";
  char buf[256];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    const std::string_view name = layer_name(s.layer);
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\":\"%.*s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%zu,"
                  "\"parent\":%lld,\"record\":%llu}}",
                  i == 0 ? "" : ",", static_cast<int>(name.size()),
                  name.data(), static_cast<double>(s.start_ns) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3, i,
                  static_cast<long long>(s.parent),
                  static_cast<unsigned long long>(s.record));
    out += buf;
  }
  out += "],\"otherData\":{";
  for (std::size_t i = 0; i < stamp.size(); ++i) {
    if (i > 0) out += ',';
    out += '"' + stamp[i].first + "\":\"";
    for (const char c : stamp[i].second) {
      if (c == '"' || c == '\\') out += '\\';
      out += c;
    }
    out += '"';
  }
  out += "}}\n";
  return out;
}

}  // namespace perfbench

// adapt_perfbench: the repository benchmark.
//
//   adapt_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                   [--spans-out <file>] [--tiny]
//
// --trace 0 measures the end-to-end metrics through the public entry points
// (sim::run_volume, proto::run_prototype) with tracing off and checks the
// outputs; replay timings are scaled to a nominal host speed (see
// HostSpeed). --trace 1 is the separate traced run: it replays the same inputs
// through an engine whose layer boundaries are timed from this benchmark
// (see layers.h) and prints the per-layer metrics. Human-readable lines go
// first; the last stdout line is one JSON object
// {"correct", "attempted", "failed", "metrics"}. Any failed output check
// makes the exit code non-zero.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <fcntl.h>
#include <malloc.h>
#include <unistd.h>

#include "layers.h"
#include "common/rng.h"
#include "lss/trace_sink.h"
#include "obs/export.h"
#include "proto/prototype.h"
#include "sim/simulator.h"
#include "spans.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace adapt;
using Clock = std::chrono::steady_clock;

// Set-up repeats per run; setup_s and trace.gen_s report the median.
constexpr int kSetupReps = 9;
// Replay rounds run at least this often, even past --seconds.
constexpr int kMinRounds = 3;
// The traced run keeps full spans for 1 record in kSpanSampleEvery.
constexpr std::uint64_t kSpanSampleEvery = 64;
constexpr std::size_t kMaxSampledSpans = 50'000;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_out;
  Scale scale;
};

double seconds_since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::string join(const std::vector<double>& v) {
  std::string out;
  char buf[32];
  for (const double x : v) {
    std::snprintf(buf, sizeof(buf), "%s%.4g", out.empty() ? "" : ",", x);
    out += buf;
  }
  return out;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

template <typename T>
double fp(T v) {
  return static_cast<double>(v);
}

// ---------------------------------------------------------------------------
// Output: stamp lines, metric lines, and the final JSON line.

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        std::size_t b = colon + 1;
        while (b < line.size() && line[b] == ' ') ++b;
        return line.substr(b);
      }
    }
  }
  return "unknown";
}

std::vector<std::pair<std::string, std::string>> stamp(const Args& args) {
#ifdef NDEBUG
  const char* ndebug = "1";
#else
  const char* ndebug = "0";
#endif
#ifdef __OPTIMIZE__
  const char* optimize = "1";
#else
  const char* optimize = "0";
#endif
  return {
      {"workload", args.workload},
      {"seed", std::to_string(args.seed)},
      {"nproc", std::to_string(sysconf(_SC_NPROCESSORS_ONLN))},
      {"cpu_model", cpu_model()},
#ifdef __clang__
      {"compiler", "clang " __clang_version__},
#else
      {"compiler", "gcc " __VERSION__},
#endif
      {"NDEBUG", ndebug},
      {"__OPTIMIZE__", optimize},
      {"ADAPT_TRACING_COMPILED", std::to_string(ADAPT_TRACING_COMPILED)},
  };
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

class Report {
 public:
  /// Goes into the JSON line (and is printed).
  void metric(std::string name, double value, std::string unit) {
    json_.push_back(Metric{std::move(name), value, std::move(unit)});
    print(json_.back(), "metric");
  }
  /// Printed only: workload-specific names and detail beside the metrics.
  void info(std::string name, double value, std::string unit) {
    print(Metric{std::move(name), value, std::move(unit)}, "info");
  }
  void note(const std::string& text) { std::printf("# %s\n", text.c_str()); }

  void fail(const std::string& what) {
    correct_ = false;
    std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  }
  void count_ops(std::uint64_t attempted, bool ok) {
    attempted_ += attempted;
    if (!ok) failed_ += attempted;
  }
  bool correct() const noexcept { return correct_ && failed_ == 0; }
  std::uint64_t attempted() const noexcept { return attempted_; }
  std::uint64_t failed() const noexcept { return failed_; }

  void print_json() const {
    std::string out = "{\"correct\": ";
    out += correct() ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted_);
    out += ", \"failed\": " + std::to_string(failed_);
    out += ", \"metrics\": {";
    char buf[512];
    for (std::size_t i = 0; i < json_.size(); ++i) {
      const Metric& m = json_[i];
      const double v = std::isfinite(m.value) ? m.value : 0.0;
      std::snprintf(buf, sizeof(buf),
                    "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", m.name.c_str(), v, m.unit.c_str());
      out += buf;
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
    std::fflush(stdout);
  }

 private:
  static void print(const Metric& m, const char* kind) {
    std::printf("%s %s = %.6g %s\n", kind, m.name.c_str(), m.value,
                m.unit.c_str());
  }

  std::vector<Metric> json_;
  bool correct_ = true;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

// ---------------------------------------------------------------------------
// Host speed. Other tenants of the machine slow this host down by up to 2x,
// in phases of seconds to minutes, which no repetition inside one run
// averages out. The replay workloads therefore time a short reference walk
// (about 1 ms) between every two timed pieces of work: before and after each
// volume's run_volume and each input-generation repeat. The walk is
// independent of the program (a random read-modify-write walk over a
// 256 KiB table). Each piece's time is scaled by (kRefNominalNs / mean ns
// per step of the walks on either side of it)^e, i.e. to the host speed at
// which one step takes kRefNominalNs, where e is the workload's measured
// elasticity (Workload::host_ref_elasticity): a slow phase does not slow
// every kind of work by the same factor. Sampling around every volume
// tracks the host's speed far better than a long walk per round did: on
// one set of runs on a shared 4-vCPU Xeon host, the seed-to-seed spread of
// cloud-adapt's ns_per_block was 0.06 against 0.10 (0.22 unscaled). Raw
// values are printed beside the scaled ones.

constexpr double kRefNominalNs = 2.5;

class HostSpeed {
 public:
  explicit HostSpeed(double elasticity)
      : table_(std::size_t{1} << 15), elasticity_(elasticity) {
    for (std::size_t i = 0; i < table_.size(); ++i) {
      table_[i] = mix64(i);
    }
  }

  /// Times one reference walk and keeps its ns per step.
  void sample() {
    constexpr std::uint64_t kSteps = std::uint64_t{1} << 18;
    const std::uint64_t mask = table_.size() - 1;
    std::uint64_t x = sink_ | 1;
    const auto t = Clock::now();
    for (std::uint64_t i = 0; i < kSteps; ++i) {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      std::uint64_t& e = table_[(x >> 32) & mask];
      sink_ += e;
      e ^= sink_;
      if ((sink_ & 1) != 0) sink_ += x >> 7;
    }
    samples_.push_back(seconds_since(t) * 1e9 / static_cast<double>(kSteps));
  }

  double median_ns() const { return median(samples_); }

  /// Multiplier taking a time measured between the last two samples to
  /// nominal host speed.
  double scale_last() const {
    const std::size_t n = samples_.size();
    return std::pow(
        kRefNominalNs / (0.5 * (samples_.at(n - 2) + samples_.at(n - 1))),
        elasticity_);
  }

 private:
  std::vector<std::uint64_t> table_;
  double elasticity_;
  std::vector<double> samples_;
  std::uint64_t sink_ = 0;
};

// ---------------------------------------------------------------------------
// Memory. peak_rss_mb is the program's share of the peak resident set: the
// inputs the benchmark keeps resident are not counted. start() returns freed
// heap pages to the kernel, resets the kernel's high-water mark (VmHWM, via
// /proc/self/clear_refs) to the current RSS and keeps that RSS as the
// baseline; peak_mb() is the high-water mark since then minus the baseline.

class PeakRss {
 public:
  /// False when VmHWM could not be reset; peak_mb() then also counts
  /// whatever peak came before.
  bool start() {
    malloc_trim(0);
    const int fd = ::open("/proc/self/clear_refs", O_WRONLY);
    const bool reset = fd >= 0 && ::write(fd, "5", 1) == 1;
    if (fd >= 0) ::close(fd);
    baseline_kib_ = status_kib("VmRSS:");
    return reset;
  }
  double peak_mb() const {
    const std::uint64_t hwm = status_kib("VmHWM:");
    return fp(hwm > baseline_kib_ ? hwm - baseline_kib_ : 0) / 1024.0;
  }
  double baseline_mb() const { return fp(baseline_kib_) / 1024.0; }

 private:
  static std::uint64_t status_kib(std::string_view key) {
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind(key, 0) == 0) {
        return std::stoull(line.substr(key.size()));
      }
    }
    return 0;
  }

  std::uint64_t baseline_kib_ = 0;
};

// ---------------------------------------------------------------------------
// Inputs.

struct Inputs {
  std::vector<trace::Volume> volumes;
  double gen_s = 0.0;         ///< median generation time
  double gen_scaled_s = 0.0;  ///< median at nominal host speed
};

/// Generates the inputs kSetupReps times, sampling the host speed around
/// each repeat; every repeat must hash equal.
Inputs make_inputs(const Workload& w, const Args& args, HostSpeed& speed,
                   Report& report) {
  Inputs in;
  std::vector<double> gen, gen_scaled;
  std::uint64_t first_hash = 0;
  speed.sample();
  for (int i = 0; i < kSetupReps; ++i) {
    in.volumes.clear();
    in.volumes.shrink_to_fit();
    const auto t = Clock::now();
    in.volumes = make_volumes(w, args.seed, args.scale);
    gen.push_back(seconds_since(t));
    speed.sample();
    gen_scaled.push_back(gen.back() * speed.scale_last());
    const std::uint64_t h = volumes_hash(in.volumes);
    if (i == 0) {
      first_hash = h;
    } else if (h != first_hash) {
      report.fail("input generation is not deterministic for one seed");
    }
  }
  in.gen_s = median(gen);
  in.gen_scaled_s = median(gen_scaled);
  return in;
}

std::uint64_t records_of(const std::vector<trace::Volume>& volumes) {
  std::uint64_t n = 0;
  for (const trace::Volume& v : volumes) n += v.records.size();
  return n;
}

/// Every simulated counter a replay produces; equal inputs must give equal
/// fingerprints.
std::vector<std::uint64_t> fingerprint(const lss::LssMetrics& m,
                                       const array::StreamStats& a) {
  return {m.user_blocks,        m.gc_blocks,          m.shadow_blocks,
          m.padding_blocks,     m.gc_runs,            m.gc_migrated_blocks,
          m.forced_lazy_flushes, m.rmw_flushes,       m.rmw_blocks,
          m.rmw_read_blocks,    m.read_blocks,        m.read_chunk_fetches,
          m.read_buffer_hits,   m.read_unmapped,      a.chunks_written,
          a.data_bytes,         a.padding_bytes,      a.parity_bytes};
}

/// Checks that a manifest serialises to a document validate_manifest_json
/// accepts (which enforces the write-accounting identity). Returns false
/// and records the failure otherwise.
bool manifest_ok(const obs::RunManifest& man, Report& report,
                 bool need_breakdown) {
  try {
    const std::string json = obs::manifest_json(man);
    obs::validate_manifest_json(json);
    if (need_breakdown &&
        json.find("\"latency_breakdown\"") == std::string::npos) {
      report.fail("prototype manifest lacks its latency_breakdown block");
      return false;
    }
  } catch (const std::exception& e) {
    report.fail(std::string("manifest rejected: ") + e.what());
    return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Untraced runs: the end-to-end metrics.

// The replays' peak_rss_mb is measured per volume (run_volume builds and
// frees one engine per volume) and expressed per kRssPerBlocks logical
// blocks, so that it does not depend on which volume capacities a seed
// draws.
constexpr double kRssPerBlocks = 1 << 20;

struct ReplayRounds {
  std::vector<double> ns_per_block;   ///< one per round
  std::vector<double> rss_mb;         ///< one per round, per kRssPerBlocks
  bool rss_reset_ok = true;
  std::vector<double> construct_s;    ///< one per round, summed over volumes
  std::vector<double> ns_scaled;      ///< ns_per_block at nominal host speed
  std::vector<double> construct_scaled_s;  ///< construct_s likewise
  lss::LssMetrics metrics;            ///< first round, merged over volumes
  std::vector<std::vector<std::uint64_t>> fingerprints;  ///< first round
};

/// One pass of sim::run_volume over every volume, sampling the host speed
/// after each (the previous sample precedes the first). Fills `out` and
/// checks each manifest and, after the first round, that counters repeat
/// exactly.
void replay_round(const Workload& w, const std::vector<trace::Volume>& vols,
                  HostSpeed& speed, ReplayRounds& out, Report& report) {
  double replay_s = 0.0;
  double construct_s = 0.0;
  double replay_scaled_s = 0.0;
  double construct_scaled_s = 0.0;
  double rss_mb = 0.0;
  double logical_blocks = 0.0;
  std::uint64_t user_blocks = 0;
  const bool first = out.fingerprints.empty();
  for (std::size_t i = 0; i < vols.size(); ++i) {
    bool ok = true;
    try {
      PeakRss rss;
      out.rss_reset_ok = rss.start() && out.rss_reset_ok;
      const auto t = Clock::now();
      const sim::VolumeResult r = sim::run_volume(vols[i], w.policy, w.sim);
      const double total = seconds_since(t);
      rss_mb += rss.peak_mb();
      logical_blocks += fp(volume_logical_blocks(vols[i]));
      speed.sample();
      const double construct = std::max(0.0, total - r.manifest.wall_seconds);
      replay_s += r.manifest.wall_seconds;
      construct_s += construct;
      replay_scaled_s += r.manifest.wall_seconds * speed.scale_last();
      construct_scaled_s += construct * speed.scale_last();
      user_blocks += r.metrics.user_blocks;
      ok = manifest_ok(r.manifest, report, false);
      const auto fpv = fingerprint(r.metrics, r.array_totals);
      if (first) {
        out.fingerprints.push_back(fpv);
        out.metrics.merge_from(r.metrics);
      } else if (fpv != out.fingerprints[i]) {
        report.fail("volume " + std::to_string(i) +
                    ": simulated counters differ between rounds");
        ok = false;
      }
    } catch (const std::exception& e) {
      report.fail(std::string("run_volume threw: ") + e.what());
      ok = false;
    }
    report.count_ops(vols[i].records.size(), ok);
  }
  out.ns_per_block.push_back(ratio(replay_s * 1e9, fp(user_blocks)));
  out.construct_s.push_back(construct_s);
  out.ns_scaled.push_back(ratio(replay_scaled_s * 1e9, fp(user_blocks)));
  out.construct_scaled_s.push_back(construct_scaled_s);
  out.rss_mb.push_back(ratio(rss_mb * kRssPerBlocks, logical_blocks));
}

void run_replay_untraced(const Workload& w, const Args& args,
                         Report& report) {
  HostSpeed speed(w.host_ref_elasticity);
  const Inputs in = make_inputs(w, args, speed, report);
  report.note("volumes=" + std::to_string(in.volumes.size()) +
              " records=" + std::to_string(records_of(in.volumes)));
  PeakRss inputs;
  inputs.start();
  ReplayRounds rounds;
  const auto start = Clock::now();
  speed.sample();
  while (static_cast<int>(rounds.ns_per_block.size()) < kMinRounds ||
         seconds_since(start) < args.seconds) {
    replay_round(w, in.volumes, speed, rounds, report);
  }
  const double ns = median(rounds.ns_per_block);
  const double setup = in.gen_s + median(rounds.construct_s);
  report.note("rounds=" + std::to_string(rounds.ns_per_block.size()) +
              " user_blocks_per_round=" +
              std::to_string(rounds.metrics.user_blocks) +
              " ns_per_block_by_round=" + join(rounds.ns_per_block) +
              " scaled_by_round=" + join(rounds.ns_scaled));
  std::uint64_t counters_hash = 0;
  for (const auto& fpv : rounds.fingerprints) {
    for (const std::uint64_t c : fpv) counters_hash = mix64(counters_hash ^ c);
  }
  char hex[32];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(counters_hash));
  report.note(std::string("simulated_counters_hash=") + hex);
  report.metric("ns_per_block", median(rounds.ns_scaled), "ns");
  report.metric("wa", rounds.metrics.wa(), "ratio");
  report.metric("padding_ratio", rounds.metrics.padding_ratio(), "ratio");
  if (!rounds.rss_reset_ok) {
    report.note("peak_rss_mb: cannot reset VmHWM; peaks may include input "
                "generation");
  }
  report.metric("peak_rss_mb", median(rounds.rss_mb), "MiB");
  report.metric("setup_s",
                in.gen_scaled_s + median(rounds.construct_scaled_s), "s");
  report.info("replay_ns_per_block", ns, "ns");
  report.info("setup_raw_s", setup, "s");
  report.info("inputs_rss_mb", inputs.baseline_mb(), "MiB");
  report.info("host_ref_ns_per_step", speed.median_ns(), "ns");
  report.info("failed_frac",
              ratio(fp(report.failed()), fp(report.attempted())), "ratio");
}

void run_proto_untraced(const Workload& w, const Args& args, Report& report) {
  const proto::PrototypeConfig& cfg = w.proto;
  const std::uint64_t expected = cfg.num_clients * cfg.writes_per_client;
  std::vector<double> ns, kops, setup, wa, padding;
  Log2Histogram latency_ns;
  PeakRss rss;
  if (!rss.start()) {
    report.note("peak_rss_mb: cannot reset VmHWM; the peak may include "
                "earlier set-up");
  }
  const auto start = Clock::now();
  while (static_cast<int>(ns.size()) < kMinRounds ||
         seconds_since(start) < args.seconds) {
    bool ok = true;
    try {
      const auto t = Clock::now();
      const proto::PrototypeResult r = proto::run_prototype(cfg);
      const double total = seconds_since(t);
      setup.push_back(std::max(0.0, total - r.elapsed_seconds));
      ns.push_back(ratio(r.elapsed_seconds * 1e9, fp(r.user_blocks)));
      kops.push_back(r.throughput_kops);
      wa.push_back(r.metrics.wa());
      padding.push_back(r.metrics.padding_ratio());
      latency_ns.merge_from(r.latency_ns);
      if (r.user_blocks != expected) {
        report.fail("prototype committed " + std::to_string(r.user_blocks) +
                    " blocks, expected " + std::to_string(expected));
        ok = false;
      }
      ok = manifest_ok(r.manifest, report, true) && ok;
    } catch (const std::exception& e) {
      // A throw on this thread lands here. A throw inside a client thread
      // (lss::WriteAborted included) ends the process, so the run exits
      // non-zero without printing a result.
      report.fail(std::string("run_prototype threw: ") + e.what());
      ok = false;
    }
    report.count_ops(expected, ok);
  }
  report.note("rounds=" + std::to_string(ns.size()) +
              " ops_per_round=" + std::to_string(expected) +
              " kops_by_round=" + join(kops));
  report.metric("ns_per_block", median(ns), "ns");
  report.metric("wa", median(wa), "ratio");
  report.metric("padding_ratio", median(padding), "ratio");
  report.metric("peak_rss_mb", rss.peak_mb(), "MiB");
  report.metric("setup_s", median(setup), "s");
  report.info("commit_kops", median(kops), "kIOPS");
  // Log2Histogram percentiles: power-of-two buckets, linear interpolation
  // inside the bucket (within a factor of 2 of the exact percentile).
  report.note("commit latency: Log2Histogram estimate, samples=" +
              std::to_string(latency_ns.count()));
  if (!latency_ns.empty()) {
    report.info("commit_p50_us", latency_ns.percentile(50) / 1e3, "us");
    report.info("commit_p99_us", latency_ns.percentile(99) / 1e3, "us");
  }
  report.info("failed_frac",
              ratio(fp(report.failed()), fp(report.attempted())), "ratio");
}

// ---------------------------------------------------------------------------
// Traced run: the per-layer metrics.

struct TracedTotals {
  int rounds = 0;
  lss::LssMetrics metrics;
  array::StreamStats array_totals;
  std::uint64_t write_gc_calls = 0;
  std::uint64_t write_gc_self_ns = 0;
  std::uint64_t deadline_aggregates = 0;
  std::uint64_t logical_blocks = 0;
  std::uint64_t policy_memory_bytes = 0;
  std::uint64_t demotions = 0;
  bool is_adapt = false;
  AdapterReplay adapter;  ///< summed over volumes, first round
  std::uint64_t adapter_memory_bytes = 0;
  std::size_t volumes = 0;
};

void add_stats(array::StreamStats& into, const array::StreamStats& s) {
  into.chunks_written += s.chunks_written;
  into.data_bytes += s.data_bytes;
  into.padding_bytes += s.padding_bytes;
  into.parity_bytes += s.parity_bytes;
  into.rmw_writes += s.rmw_writes;
  into.rmw_read_bytes += s.rmw_read_bytes;
}

/// Runs untraced and traced replays alternately over the volumes; checks
/// that the traced engine reproduces run_volume's counters exactly and that
/// the standalone adapter matches the policy's own. Returns the overhead of
/// tracing (traced wall / untraced wall - 1, medians over rounds).
double traced_replays(const Workload& w, const std::vector<trace::Volume>& vols,
                      double seconds, SpanRecorder& rec, TracedTotals& tot,
                      Report& report) {
  std::vector<double> untraced_s, traced_s;
  const auto start = Clock::now();
  tot.volumes = vols.size();
  while (tot.rounds < 1 || seconds_since(start) < seconds) {
    const bool first = tot.rounds == 0;
    double u = 0.0, t = 0.0;
    for (std::size_t i = 0; i < vols.size(); ++i) {
      bool ok = true;
      try {
        const sim::VolumeResult ref = sim::run_volume(vols[i], w.policy, w.sim);
        u += ref.manifest.wall_seconds;
        // Only ADAPT runs a ThresholdAdapter, so only its writes are kept
        // for the standalone adapter replay.
        TracedVolume tv = replay_traced(vols[i], w.policy, w.sim, rec,
                                        first && w.policy == "adapt");
        t += tv.replay_seconds;
        const lss::LssMetrics& a = ref.metrics;
        const lss::LssMetrics& b = tv.metrics;
        if (a.user_blocks != b.user_blocks || a.gc_blocks != b.gc_blocks ||
            a.padding_blocks != b.padding_blocks ||
            a.shadow_blocks != b.shadow_blocks ||
            a.read_blocks != b.read_blocks ||
            ref.array_totals.chunks_written != tv.chunks_flushed ||
            fingerprint(a, ref.array_totals) !=
                fingerprint(b, tv.array_totals)) {
          report.fail("volume " + std::to_string(i) +
                      ": traced engine counters differ from run_volume");
          ok = false;
        }
        tot.metrics.merge_from(tv.metrics);
        add_stats(tot.array_totals, tv.array_totals);
        tot.write_gc_calls += tv.write_gc_calls;
        tot.write_gc_self_ns += tv.write_gc_self_ns;
        tot.deadline_aggregates += tv.deadline_aggregates;
        tot.demotions += tv.demotions;
        tot.is_adapt = tv.is_adapt;
        if (tv.is_adapt && tv.deadline_aggregates != tv.shadow_decisions) {
          report.fail("hook wrapper saw " +
                      std::to_string(tv.deadline_aggregates) +
                      " aggregations, policy counted " +
                      std::to_string(tv.shadow_decisions));
          ok = false;
        }
        if (first) {
          tot.logical_blocks += tv.logical_blocks;
          tot.policy_memory_bytes += tv.policy_memory_bytes;
        }
        if (first && tv.is_adapt) {
          const AdapterReplay ar =
              replay_adapter(tv.adapter_config, tv.user_writes);
          tot.adapter.seconds += ar.seconds;
          tot.adapter.writes += ar.writes;
          tot.adapter.sampled_writes += ar.sampled_writes;
          tot.adapter.adoptions += ar.adoptions;
          tot.adapter_memory_bytes += ar.memory_bytes;
          if (ar.sampled_writes != tv.policy_sampled_writes ||
              ar.adoptions != tv.policy_adoptions) {
            report.fail("standalone ThresholdAdapter diverges from the "
                        "policy's adapter");
            ok = false;
          }
        }
      } catch (const std::exception& e) {
        report.fail(std::string("traced replay threw: ") + e.what());
        ok = false;
      }
      report.count_ops(vols[i].records.size(), ok);
    }
    untraced_s.push_back(u);
    traced_s.push_back(t);
    ++tot.rounds;
  }
  return ratio(median(traced_s), median(untraced_s)) - 1.0;
}

void run_traced(const Workload& workload, const Args& args, Report& report) {
  Workload w = workload;
  SpanRecorder rec(kSpanSampleEvery, kMaxSampledSpans);
  TracedTotals tot;

  // The concurrent front end's layers come from one untraced run_prototype
  // (its counters and virtual-time breakdown are free to read). For
  // proto-commit the engine layers come from the serial replay of its
  // clients' streams below, paced at that run's wall time per committed
  // block, because the prototype stamps engine calls with wall-clock us.
  proto::PrototypeResult pr;
  double replay_budget = args.seconds;
  if (w.kind == Kind::kPrototype || w.traced_prototype) {
    const auto t = Clock::now();
    pr = proto::run_prototype(w.proto);
    replay_budget = std::max(0.0, args.seconds - seconds_since(t));
    const bool ok =
        pr.user_blocks == w.proto.num_clients * w.proto.writes_per_client &&
        manifest_ok(pr.manifest, report, true);
    if (!ok) report.fail("prototype run failed its output checks");
    report.count_ops(w.proto.num_clients * w.proto.writes_per_client, ok);
    report.info("commit_kops", pr.throughput_kops, "kIOPS");
  }
  if (w.kind == Kind::kPrototype) {
    w.proto_replay_step_us =
        ratio(pr.elapsed_seconds * 1e6, fp(std::max<std::uint64_t>(
                                            pr.user_blocks, 1)));
    report.note("proto replay step_us=" +
                std::to_string(w.proto_replay_step_us));
  }
  HostSpeed speed(w.host_ref_elasticity);
  const Inputs in = make_inputs(w, args, speed, report);
  const double overhead =
      traced_replays(w, in.volumes, replay_budget, rec, tot, report);

  const auto& T = [&rec](Layer l) -> const LayerTotals& {
    return rec.totals(l);
  };
  const double rounds = std::max(1, tot.rounds);
  const lss::LssMetrics& m = tot.metrics;
  const double user_blocks = fp(m.user_blocks);
  const auto per_call = [&](Layer l, bool self) {
    const LayerTotals& x = T(l);
    return ratio(fp(self ? x.self_ns : x.total_ns), fp(x.calls));
  };

  report.note("traced rounds=" + std::to_string(tot.rounds) +
              " spans_sampled=" + std::to_string(rec.spans().size()) +
              " (1 record in " + std::to_string(kSpanSampleEvery) + ")");
  report.metric("trace.gen_s", in.gen_s, "s");
  report.metric("lss.write.calls", fp(T(Layer::kWrite).calls) / rounds,
                "count");
  report.metric("lss.write.self_ns", per_call(Layer::kWrite, true), "ns");
  report.metric("lss.write_gc.share",
                ratio(fp(tot.write_gc_calls), fp(T(Layer::kWrite).calls)),
                "ratio");
  report.metric("lss.write_gc.self_ns",
                ratio(fp(tot.write_gc_self_ns), fp(tot.write_gc_calls)), "ns");
  report.metric("lss.gc.migrated_per_run",
                ratio(fp(m.gc_blocks), fp(m.gc_runs)), "blocks");
  report.metric("lss.read.ns_per_block",
                ratio(fp(T(Layer::kRead).total_ns), fp(m.read_blocks)), "ns");
  report.metric("lss.read.fetches_per_block",
                ratio(fp(m.read_chunk_fetches), fp(m.read_blocks)), "ratio");
  report.metric("lss.read.buffer_hit_ratio",
                ratio(fp(m.read_buffer_hits), fp(m.read_blocks)), "ratio");
  report.metric("lss.flush_all.ns", per_call(Layer::kFlushAll, false), "ns");
  report.metric("lss.victim.selects", fp(T(Layer::kVictimSelect).calls) /
                                          rounds, "count");
  report.metric("lss.victim.select_ns", per_call(Layer::kVictimSelect, false),
                "ns");
  report.metric("lss.victim.notify_ns", per_call(Layer::kVictimNotify, false),
                "ns");
  report.metric("lss.victim.notifies_per_block",
                ratio(fp(T(Layer::kVictimNotify).calls), user_blocks),
                "ratio");
  // adapt.place_* is the placement boundary when the policy is ADAPT; the
  // placement.* rows time the same boundary for any policy.
  const double adapt_on = tot.is_adapt ? 1.0 : 0.0;
  report.metric("adapt.place_user_write.calls",
                adapt_on * fp(T(Layer::kPlaceUser).calls) / rounds, "count");
  report.metric("adapt.place_user_write.ns",
                adapt_on * per_call(Layer::kPlaceUser, false), "ns");
  report.metric("adapt.place_gc_rewrite.calls",
                adapt_on * fp(T(Layer::kPlaceGc).calls) / rounds, "count");
  report.metric("adapt.place_gc_rewrite.ns",
                adapt_on * per_call(Layer::kPlaceGc, false), "ns");
  report.metric("adapt.adapter.ns_per_write",
                ratio(tot.adapter.seconds * 1e9, fp(tot.adapter.writes)), "ns");
  report.metric("adapt.adapter.sampled_share",
                ratio(fp(tot.adapter.sampled_writes), fp(tot.adapter.writes)),
                "ratio");
  report.metric("adapt.adapter.adoptions", fp(tot.adapter.adoptions),
                "count");
  report.metric("adapt.adapter.memory_bytes",
                ratio(fp(tot.adapter_memory_bytes), fp(tot.volumes)), "bytes");
  report.metric("adapt.deadline.calls", fp(T(Layer::kDeadline).calls) / rounds,
                "count");
  report.metric("adapt.deadline.ns", per_call(Layer::kDeadline, false), "ns");
  report.metric("adapt.deadline.aggregate_share",
                ratio(fp(tot.deadline_aggregates),
                      fp(T(Layer::kDeadline).calls)),
                "ratio");
  report.metric("adapt.demotions_per_kblock",
                ratio(fp(tot.demotions) * 1e3, user_blocks), "ratio");
  report.metric("adapt.policy_bytes_per_block",
                adapt_on * ratio(fp(tot.policy_memory_bytes),
                                 fp(tot.logical_blocks)),
                "bytes");
  report.metric("placement.place_user_write.ns",
                per_call(Layer::kPlaceUser, false), "ns");
  report.metric("placement.place_gc_rewrite.ns",
                per_call(Layer::kPlaceGc, false), "ns");
  const array::StreamStats& a = tot.array_totals;
  report.metric("array.padding_per_data_byte",
                ratio(fp(a.padding_bytes), fp(a.data_bytes)), "ratio");
  report.metric("array.parity_per_data_byte",
                ratio(fp(a.parity_bytes), fp(a.data_bytes)), "ratio");

  // Group commit, device lanes and the prototype's virtual-time phases,
  // from the prototype run above: zero on ycsb-sepgc, which never runs it.
  const lss::GroupCommitStats& gc = pr.group_commit;
  report.metric("group_commit.ops_per_batch", ratio(fp(gc.ops), fp(gc.groups)),
                "ratio");
  report.metric("group_commit.max_batch", fp(gc.max_batch), "count");
  const auto p99 = [](const Log2Histogram& h) {
    return h.empty() ? 0.0 : h.percentile(99);
  };
  report.metric("device_lanes.stall_share",
                ratio(fp(pr.lanes.total_stalled()),
                      fp(pr.lanes.total_submits())),
                "ratio");
  report.metric("device_lanes.queue_depth_p99", p99(pr.lanes.queue_depth_hist),
                "count");
  report.metric("device_lanes.submit_complete_p99_us",
                p99(pr.lanes.submit_complete_us), "us");
  report.metric("proto.intake_p99_us", p99(pr.breakdown.intake_wait_us), "us");
  report.metric("proto.apply_p99_us", p99(pr.breakdown.batch_apply_us), "us");
  report.metric("proto.lane_queue_p99_us", p99(pr.breakdown.lane_queue_us),
                "us");
  report.metric("proto.service_p99_us", p99(pr.breakdown.device_service_us),
                "us");
  report.metric("bench.trace_overhead", overhead, "ratio");

  if (!args.spans_out.empty()) {
    std::ofstream out(args.spans_out);
    out << rec.to_json(stamp(args));
    if (!out) report.fail("cannot write spans to " + args.spans_out);
  }
}

// ---------------------------------------------------------------------------

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        throw std::invalid_argument("missing value for " + std::string(flag));
      }
      return argv[++i];
    };
    if (flag == "--workload") {
      a.workload = value();
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::stoull(value());
    } else if (flag == "--seconds") {
      a.seconds = std::stod(value());
    } else if (flag == "--trace") {
      const std::string v = value();
      if (v != "0" && v != "1") throw std::invalid_argument("--trace 0|1");
      a.trace = v == "1";
    } else if (flag == "--spans-out") {
      a.spans_out = value();
    } else if (flag == "--tiny") {
      a.scale.tiny = true;
    } else {
      throw std::invalid_argument("unknown argument " + std::string(flag));
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  if (!(a.seconds >= 0.0)) throw std::invalid_argument("--seconds >= 0");
  return a;
}

int run(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const Workload w = make_workload(args.workload, args.seed, args.scale);
  for (const auto& [key, value] : stamp(args)) {
    std::printf("# %s=%s\n", key.c_str(), value.c_str());
  }
#ifndef __OPTIMIZE__
  std::fprintf(stderr,
               "WARNING: built without optimisation; timings are not "
               "representative\n");
  std::printf("# WARNING: unoptimised build\n");
#endif
  Report report;
  if (args.trace) {
    run_traced(w, args, report);
  } else if (w.kind == Kind::kPrototype) {
    run_proto_untraced(w, args, report);
  } else {
    run_replay_untraced(w, args, report);
  }
  report.print_json();
  return report.correct() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "adapt_perfbench: %s\n", e.what());
    return 2;
  }
}

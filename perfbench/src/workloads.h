// The benchmark's workloads and their seeded inputs.
//
//   cloud-adapt   ADAPT over synthetic alibaba cloud volumes: the paper's
//                 target traffic, where every ADAPT mechanism works hard.
//   ycsb-sepgc    SepGC over a 2^20-block YCSB-A volume: bypasses every
//                 ADAPT mechanism; BlockMap updates and reads dominate.
//   proto-commit  The group-commit prototype (ConcurrentEngine intake,
//                 DeviceLanes, GC threads) under a closed loop of clients.
//                 Its client throughput, WA and padding follow the host's
//                 sleep and wake-up latency, so it is not one of the gated
//                 workloads in BENCHMARK.json; cloud-adapt's traced run
//                 runs it once for the front end's per-layer metrics.
//
// The program only ever sees the generated inputs; the seed picks them.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "proto/prototype.h"
#include "sim/simulator.h"
#include "trace/record.h"

namespace perfbench {

enum class Kind { kReplay, kPrototype };

struct Workload {
  std::string name;
  Kind kind = Kind::kReplay;
  /// Replay policy. For kPrototype it is the policy of the serial replay
  /// the traced run uses to time the engine layers.
  std::string policy;
  adapt::sim::SimConfig sim;
  /// The group-commit prototype: the workload itself for kPrototype; for
  /// kReplay with `traced_prototype`, run once by the traced run so that
  /// the concurrent front end's layers are measured there too.
  adapt::proto::PrototypeConfig proto;
  bool traced_prototype = false;
  /// How strongly the replay's time follows the host-speed reference walk's
  /// (see HostSpeed in main.cpp): times are scaled by
  /// (nominal / measured walk step)^host_ref_elasticity.
  double host_ref_elasticity = 1.0;
  /// kPrototype only: wall us between consecutive writes of the serial
  /// replay, i.e. the measured prototype's elapsed time per committed block.
  /// The prototype stamps engine calls with wall-clock us, so this keeps the
  /// replay's coalescing-window behaviour that of the live run.
  double proto_replay_step_us = 0.0;
};

/// Input sizes. `tiny` shrinks everything for the benchmark's own tests.
struct Scale {
  bool tiny = false;
};

/// Throws std::invalid_argument for unknown names.
Workload make_workload(std::string_view name, std::uint64_t seed,
                       const Scale& scale);

/// Replay inputs generated from the workload's seed. For kPrototype this is
/// the clients' write streams interleaved one op per client, one write every
/// proto_replay_step_us (which must be set), replayed serially by the traced
/// run.
std::vector<adapt::trace::Volume> make_volumes(const Workload& workload,
                                        std::uint64_t seed,
                                        const Scale& scale);

/// Order-sensitive hash of a volume set; equal inputs give equal hashes.
std::uint64_t volumes_hash(const std::vector<adapt::trace::Volume>& volumes);

}  // namespace perfbench

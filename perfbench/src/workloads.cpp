#include "workloads.h"

#include <stdexcept>

#include "common/rng.h"
#include "trace/synthetic.h"

namespace perfbench {

using namespace adapt;

namespace {

// cloud-adapt: alibaba volumes (working sets 2^15..2^17 blocks), each
// writing 4x its working set so GC runs for most of the replay, as many as
// it takes to write 2^24 blocks (about 60). The volume mix a seed draws sets
// WA, and WA sets the replay time per user block; averaging over that many
// volumes keeps both within a few percent from seed to seed, and the fixed
// write budget keeps a round's work and the process's memory nearly
// constant.
constexpr double kCloudFill = 4.0;
constexpr std::uint64_t kCloudWriteBudget = std::uint64_t{1} << 24;

// Elasticity of each replay's time per block with respect to the host-speed
// reference walk's time per step, measured on this benchmark's own runs on a
// shared 4-vCPU Xeon host by regressing log replay time on log walk time: cloud-adapt, whose working
// sets fit in L2 like the walk's table, 0.62 within runs and 0.83 between
// runs; ycsb-sepgc, which waits on DRAM, 0.48 within and 0.45 between (a
// slow phase that tripled the walk's step slowed its replay 1.6x).
constexpr double kCloudHostRefElasticity = 0.75;
constexpr double kYcsbHostRefElasticity = 0.5;

// ycsb-sepgc: 2^20-block working set, zipf 0.99, 50% reads, 2 us mean
// inter-arrival, writing 2x the working set.
constexpr std::uint64_t kYcsbWorkingSet = std::uint64_t{1} << 20;
constexpr std::uint64_t kYcsbWriteFill = 2;

// proto-commit: prototype_demo geometry, 4 closed-loop clients.
constexpr std::uint32_t kProtoClients = 4;
constexpr std::uint64_t kProtoWritesPerClient = 25'000;

proto::PrototypeConfig prototype_config(std::uint64_t seed,
                                        const Scale& scale) {
  proto::PrototypeConfig p;
  p.policy = "adapt";
  p.victim_policy = "greedy";
  p.background_gc = true;
  p.num_clients = kProtoClients;
  p.writes_per_client =
      scale.tiny ? kProtoWritesPerClient / 50 : kProtoWritesPerClient;
  p.workload.working_set_blocks = std::uint64_t{1} << 16;
  p.workload.zipf_alpha = 0.99;
  p.workload.mean_interarrival_us = 0.0;
  p.lss.coalesce_window_us = 300;
  p.seed = seed;
  return p;
}

}  // namespace

Workload make_workload(std::string_view name, std::uint64_t seed,
                       const Scale& scale) {
  Workload w;
  w.name = std::string(name);
  w.sim.victim_policy = "greedy";
  w.sim.shards = 1;
  if (name == "cloud-adapt") {
    w.policy = "adapt";
    w.host_ref_elasticity = kCloudHostRefElasticity;
    w.proto = prototype_config(seed, scale);
    w.traced_prototype = true;
  } else if (name == "ycsb-sepgc") {
    w.policy = "sepgc";
    w.host_ref_elasticity = kYcsbHostRefElasticity;
  } else if (name == "proto-commit") {
    w.kind = Kind::kPrototype;
    w.policy = "adapt";
    w.proto = prototype_config(seed, scale);
    w.sim.lss = w.proto.lss;
  } else {
    throw std::invalid_argument("unknown workload: " + std::string(name));
  }
  return w;
}

std::vector<trace::Volume> make_volumes(const Workload& workload,
                                        std::uint64_t seed,
                                        const Scale& scale) {
  std::vector<trace::Volume> volumes;
  if (workload.name == "cloud-adapt") {
    trace::CloudVolumeModel model(trace::alibaba_profile(), seed);
    const double fill = scale.tiny ? 2.0 : kCloudFill;
    const std::uint64_t budget = scale.tiny ? 1 : kCloudWriteBudget;
    std::uint64_t written = 0;
    for (std::uint64_t v = 0; written < budget; ++v) {
      volumes.push_back(model.make_volume(v, fill));
      written += static_cast<std::uint64_t>(
          fill * static_cast<double>(volumes.back().capacity_blocks));
    }
  } else if (workload.name == "ycsb-sepgc") {
    trace::YcsbConfig yc;
    yc.working_set_blocks = scale.tiny ? kYcsbWorkingSet / 16 : kYcsbWorkingSet;
    yc.zipf_alpha = 0.99;
    yc.read_ratio = 0.5;
    yc.mean_interarrival_us = 2.0;
    yc.seed = seed;
    volumes.push_back(trace::make_ycsb_volume(
        yc, (scale.tiny ? 1 : kYcsbWriteFill) * yc.working_set_blocks));
  } else {
    // The prototype's clients each draw from YcsbGenerator(seed * 7919 +
    // client); their write streams are interleaved one op per client, with
    // the clock advancing at the measured prototype's rate.
    const proto::PrototypeConfig& p = workload.proto;
    const double step_us = workload.proto_replay_step_us;
    if (!(step_us > 0.0)) {
      throw std::invalid_argument(
          "proto-commit replay needs the measured prototype's step");
    }
    std::vector<trace::YcsbGenerator> gens;
    for (std::uint32_t c = 0; c < p.num_clients; ++c) {
      trace::YcsbConfig wc = p.workload;
      wc.seed = p.seed * 7919 + c;
      gens.emplace_back(wc);
    }
    trace::Volume vol;
    vol.id = seed;
    vol.capacity_blocks = p.workload.working_set_blocks;
    double clock_us = 0.0;
    for (std::uint64_t i = 0; i < p.writes_per_client; ++i) {
      for (trace::YcsbGenerator& gen : gens) {
        trace::Record r = gen.next();
        while (r.op != trace::OpType::kWrite) r = gen.next();
        r.ts_us = static_cast<TimeUs>(clock_us);
        vol.records.push_back(r);
        clock_us += step_us;
      }
    }
    volumes.push_back(std::move(vol));
  }
  return volumes;
}

std::uint64_t volumes_hash(const std::vector<trace::Volume>& volumes) {
  std::uint64_t h = 0x9e3779b97f4a7c15ULL;
  const auto mix = [&h](std::uint64_t v) { h = mix64(h ^ v) + v; };
  for (const trace::Volume& vol : volumes) {
    mix(vol.id);
    mix(vol.capacity_blocks);
    mix(vol.records.size());
    for (const trace::Record& r : vol.records) {
      mix(r.ts_us);
      mix(r.lba);
      mix((std::uint64_t{r.blocks} << 1) |
          (r.op == trace::OpType::kWrite ? 1 : 0));
    }
  }
  return h;
}

}  // namespace perfbench

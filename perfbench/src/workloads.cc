#include "workloads.h"

namespace perfbench {

using orbit::kMillisecond;
using orbit::testbed::Scheme;
using orbit::testbed::TestbedConfig;

namespace {

// Long enough that every workload's window holds >10K reads (so p99.9 has
// at least ten samples beyond it) and short enough that a point costs a
// few host seconds, so a run can repeat it and report a median.
constexpr orbit::SimTime kWarmup = 20 * kMillisecond;
constexpr orbit::SimTime kWindow = 60 * kMillisecond;

// fabric_rw_verified's fixed offered load (aggregate client RPS). The
// fabric saturates near 2.0M (FindSaturation at 2% loss), and by 1.3M the
// hottest server's queue already sets p99.9; at 1.0M latency is the
// design's, not a full queue's.
constexpr double kFabricOfferedRps = 1'000'000;

// §5.1 testbed defaults (4 clients, 32 servers at 100K RPS, 10M keys, paper
// value sizes, 128 preloaded OrbitCache items, static cache).
TestbedConfig PaperTestbed(uint64_t seed) {
  TestbedConfig cfg;
  cfg.warmup = kWarmup;
  cfg.duration = kWindow;
  cfg.seed = seed;
  return cfg;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {
      "orbit_hot_read", "netcache_uniform_rw", "fabric_rw_verified"};
  return names;
}

std::optional<Workload> MakeWorkload(std::string_view name, uint64_t seed) {
  Workload w;
  w.name = std::string(name);
  w.config = PaperTestbed(seed);
  TestbedConfig& cfg = w.config;
  if (name == "orbit_hot_read") {
    w.saturation = true;
    cfg.scheme = Scheme::kOrbitCache;
    cfg.workload.zipf_theta = 0.99;
  } else if (name == "netcache_uniform_rw") {
    w.saturation = true;
    cfg.scheme = Scheme::kNetCache;
    cfg.workload.zipf_theta = 0.0;
    cfg.workload.write_ratio = 0.05;
  } else if (name == "fabric_rw_verified") {
    cfg.scheme = Scheme::kOrbitCache;
    cfg.topo.fabric.num_racks = 4;
    cfg.topo.num_clients = 8;
    cfg.topo.client_rate_rps = kFabricOfferedRps;
    cfg.workload.zipf_theta = 0.99;
    cfg.workload.write_ratio = 0.20;
    cfg.control.run_cache_updates = true;
    cfg.control.update_period = 10 * kMillisecond;
    cfg.control.report_period = 10 * kMillisecond;
    cfg.verify.enabled = true;
    cfg.verify.fail_fast = false;
  } else {
    return std::nullopt;
  }
  return w;
}

TestbedConfig SetupOnlyConfig(const Workload& workload) {
  TestbedConfig cfg = workload.config;
  cfg.warmup = 1;
  cfg.duration = 1;
  return cfg;
}

}  // namespace perfbench

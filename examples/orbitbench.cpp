// orbitbench — configurable experiment driver.
//
// Runs one testbed experiment from command-line flags and prints a result
// summary; the programmable front door to everything the figure benches do.
// For example (one command line):
//
//   ./build/examples/orbitbench --scheme=orbitcache --skew=0.99
//       --servers=32 --server-rate=100000 --cache-size=128 --saturate
//
// Flags (defaults in brackets):
//   --scheme=orbitcache|netcache|nocache   [orbitcache]
//   --skew=F           zipf theta, 0 = uniform            [0.99]
//   --keys=N           key-space size                     [1000000]
//   --clients=N        client nodes                       [4]
//   --servers=N        emulated storage servers           [32]
//   --server-rate=N    per-server RPS cap, 0 = unlimited  [100000]
//   --rate=N           offered load (RPS)                 [6000000]
//   --saturate         search for saturated throughput instead of --rate
//   --write-ratio=F                                        [0]
//   --cache-size=N     OrbitCache entries                 [128]
//   --netcache-size=N  NetCache entries                   [10000]
//   --value=N          fixed value size; 0 = paper bimodal [0]
//   --write-back       enable the §3.10 write-back extension
//   --multi-packet     enable the §3.10 multi-packet extension
//   --duration-ms=N    measurement window                 [200]
//   --seed=N                                              [42]
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "testbed/testbed.h"

namespace {

bool FlagValue(const char* arg, const char* name, std::string* out) {
  const size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) != 0 || arg[n] != '=') return false;
  *out = arg + n + 1;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace orbit;

  testbed::TestbedConfig cfg;
  cfg.workload.num_keys = 1'000'000;
  cfg.duration = 200 * kMillisecond;
  bool saturate = false;
  uint32_t fixed_value = 0;

  for (int i = 1; i < argc; ++i) {
    std::string v;
    if (FlagValue(argv[i], "--scheme", &v)) {
      if (v == "orbitcache") cfg.scheme = testbed::Scheme::kOrbitCache;
      else if (v == "netcache") cfg.scheme = testbed::Scheme::kNetCache;
      else if (v == "nocache") cfg.scheme = testbed::Scheme::kNoCache;
      else { std::fprintf(stderr, "unknown scheme '%s'\n", v.c_str()); return 1; }
    } else if (FlagValue(argv[i], "--skew", &v)) {
      cfg.workload.zipf_theta = std::atof(v.c_str());
    } else if (FlagValue(argv[i], "--keys", &v)) {
      cfg.workload.num_keys = std::strtoull(v.c_str(), nullptr, 10);
    } else if (FlagValue(argv[i], "--clients", &v)) {
      cfg.topo.num_clients = std::atoi(v.c_str());
    } else if (FlagValue(argv[i], "--servers", &v)) {
      cfg.topo.num_servers = std::atoi(v.c_str());
    } else if (FlagValue(argv[i], "--server-rate", &v)) {
      cfg.topo.server_rate_rps = std::atof(v.c_str());
    } else if (FlagValue(argv[i], "--rate", &v)) {
      cfg.topo.client_rate_rps = std::atof(v.c_str());
    } else if (std::strcmp(argv[i], "--saturate") == 0) {
      saturate = true;
    } else if (FlagValue(argv[i], "--write-ratio", &v)) {
      cfg.workload.write_ratio = std::atof(v.c_str());
    } else if (FlagValue(argv[i], "--cache-size", &v)) {
      cfg.cache.orbit_cache_size = std::strtoull(v.c_str(), nullptr, 10);
    } else if (FlagValue(argv[i], "--netcache-size", &v)) {
      cfg.cache.netcache_size = std::strtoull(v.c_str(), nullptr, 10);
    } else if (FlagValue(argv[i], "--value", &v)) {
      fixed_value = static_cast<uint32_t>(std::strtoul(v.c_str(), nullptr, 10));
    } else if (std::strcmp(argv[i], "--write-back") == 0) {
      cfg.cache.write_back = true;
    } else if (std::strcmp(argv[i], "--multi-packet") == 0) {
      cfg.cache.multi_packet = true;
    } else if (FlagValue(argv[i], "--duration-ms", &v)) {
      cfg.duration = std::atoll(v.c_str()) * kMillisecond;
    } else if (FlagValue(argv[i], "--seed", &v)) {
      cfg.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else {
      std::fprintf(stderr, "unknown flag '%s' (see header comment)\n",
                   argv[i]);
      return 1;
    }
  }
  if (fixed_value > 0) cfg.workload.value_dist = wl::ValueDist::Fixed(fixed_value);

  std::printf("%s | zipf-%.2f over %llu keys | %d servers @ %.0fK RPS | "
              "write ratio %.2f\n",
              testbed::SchemeName(cfg.scheme), cfg.workload.zipf_theta,
              static_cast<unsigned long long>(cfg.workload.num_keys), cfg.topo.num_servers,
              cfg.topo.server_rate_rps / 1e3, cfg.workload.write_ratio);

  testbed::TestbedResult res;
  if (saturate) {
    auto sat = testbed::FindSaturation(cfg);
    res = std::move(sat.result);
    std::printf("saturation search: %d runs, settled at %.2f MRPS offered\n",
                sat.runs, sat.sat_tx_rps / 1e6);
  } else {
    res = testbed::RunTestbed(cfg);
  }

  std::printf("\nthroughput   %.3f MRPS rx (%.3f offered)\n", res.rx_rps / 1e6,
              res.tx_rps / 1e6);
  std::printf("breakdown    switch %.3f MRPS, servers %.3f MRPS\n",
              res.cache_served_rps / 1e6, res.server_served_rps / 1e6);
  std::printf("balance      efficiency %.2f (min/max server)\n",
              res.balancing_efficiency);
  std::printf("read latency cached p50=%.1f p99=%.1f us | server p50=%.1f "
              "p99=%.1f us\n",
              res.read_cached_latency.Median() / 1e3,
              res.read_cached_latency.P99() / 1e3,
              res.read_server_latency.Median() / 1e3,
              res.read_server_latency.P99() / 1e3);
  if (res.write_latency.count() > 0)
    std::printf("write latency p50=%.1f p99=%.1f us\n",
                res.write_latency.Median() / 1e3,
                res.write_latency.P99() / 1e3);
  std::printf("cache        %zu entries, overflow ratio %.4f, %llu packets "
              "in orbit\n",
              res.cache_entries, res.overflow_ratio,
              static_cast<unsigned long long>(res.cache_packets_in_flight));
  std::printf("integrity    %llu stale reads, %llu collisions, %llu timeouts\n",
              static_cast<unsigned long long>(res.stale_reads),
              static_cast<unsigned long long>(res.collisions),
              static_cast<unsigned long long>(res.timeouts));
  return 0;
}

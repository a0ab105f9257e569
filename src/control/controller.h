// The cache control plane (paper §3.8, Fig. 8), shared by OrbitCache and
// the NetCache baseline.
//
// The controller runs on the switch CPU. It owns the cache-entry set and
// runs a periodic update loop: read the data plane's per-entry popularity
// counters, rank the hot uncached candidates, replace the coldest cached
// entries, and fetch the new values into the data plane with F-REQs,
// retrying on timeout (§3.9).
//
// One controller drives one program, and the scheme shows only at a small
// seam:
//   - install/erase: OrbitCache matches the 128-bit key hash, NetCache the
//     raw key;
//   - candidates: storage servers' top-k reports for OrbitCache, the data
//     plane's count-min hot-key reports for NetCache;
//   - admission: NetCache cannot match keys wider than its match key, and
//     blacklists keys whose fetched values proved too large to store;
//   - OrbitCache-only tick steps: §3.10's dynamic cache sizing from the
//     overflow-request ratio, and the write-back snapshot.
//
// Register access (counter reads, lookup-table updates) is a direct call
// into the program, as over PCIe; packet exchange (F-REQ/F-REP, top-k
// reports) flows through a regular switch port the controller is attached
// to.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/types.h"
#include "kv/partition.h"
#include "netcache/program.h"
#include "orbitcache/program.h"
#include "sim/network.h"
#include "sim/node.h"
#include "sim/simulator.h"

namespace orbit::control {

struct ControllerConfig {
  size_t cache_size = 128;       // current target entry count
  size_t min_cache_size = 32;    // dynamic-sizing floor
  size_t max_cache_size = 1024;  // dynamic-sizing ceiling (≤ program capacity)
  // Dynamic sizing (§3.10) and write-back snapshots are OrbitCache-only.
  bool dynamic_sizing = false;
  double overflow_threshold = 0.01;  // 1% (paper §3.10)
  size_t sizing_step = 16;

  SimTime update_period = 100 * kMillisecond;
  // Write-back snapshot cadence (0 = off): every period the controller
  // asks the data plane to flush all dirty entries, bounding the loss
  // window of a switch failure (§3.10).
  SimTime snapshot_period = 0;
  SimTime fetch_timeout = 2 * kMillisecond;
  int max_fetch_attempts = 5;
  SimTime cpu_delay = 10 * kMicrosecond;  // PCIe + CPU turnaround

  L4Port orbit_port = 5008;
};

class CacheController : public sim::Node, public sim::TimerHandler {
 public:
  CacheController(sim::Simulator* sim, sim::Network* net,
                  oc::OrbitProgram* program,
                  const kv::Partitioner* partitioner,
                  std::vector<Addr> server_addrs, Addr self_addr,
                  int self_port, const ControllerConfig& config);
  CacheController(sim::Simulator* sim, sim::Network* net,
                  nc::NetProgram* program, const kv::Partitioner* partitioner,
                  std::vector<Addr> server_addrs, Addr self_addr,
                  int self_port, const ControllerConfig& config);

  // Installs the admissible prefix of `keys` (rank order) as the initial
  // cache, up to cache_size, and fetches their values. Call before
  // starting the workload.
  void Preload(const std::vector<Key>& keys);

  // Starts the periodic update timer.
  void Start();

  void OnPacket(sim::PacketPtr pkt, int port) override;
  std::string name() const override {
    return orbit_ != nullptr ? "controller" : "nc-controller";
  }
  // Timer demux: the periodic update tick or the rebuild-sweep deadline.
  void OnTimer(uint64_t arg) override;

  // No-cloning ablation hook: schedule a refetch of `key` from `server`.
  void RequestRefetch(const Key& key, const Hash128& hkey, Addr server);

  // Switch-failure recovery (§3.9): after the data plane was wiped, the
  // controller re-installs every entry it tracks and refetches the values —
  // the paper observes this is equivalent to a radical popularity change
  // and completes quickly.
  void RebuildCache();

  // Degraded-mode top-up (fabric leaf crash): installs admissible keys
  // beyond the cache_size target — bounded only by data-plane capacity —
  // so a surviving leaf can absorb its rack's next-hottest keys while a
  // sibling leaf is in bypass. Returns how many keys were actually
  // installed. WithdrawKey removes one such extra (or any cached key) when
  // the crashed leaf recovers; returns false if the key was not cached.
  size_t InstallExtra(const std::vector<Key>& keys);
  bool WithdrawKey(const Key& key);

  size_t current_cache_size() const { return config_.cache_size; }
  size_t num_cached() const { return by_key_.size(); }
  bool IsCached(const Key& key) const { return by_key_.count(key) > 0; }

  struct Stats {
    uint64_t updates = 0;
    uint64_t insertions = 0;
    uint64_t evictions = 0;
    uint64_t fetches_sent = 0;
    uint64_t fetch_retries = 0;
    uint64_t fetch_failures = 0;
    uint64_t reports_received = 0;
    uint64_t size_increases = 0;
    uint64_t size_decreases = 0;
    uint64_t snapshot_entries_flushed = 0;
    uint64_t skipped_wide_keys = 0;   // NetCache: wider than the match key
    uint64_t blacklisted_values = 0;  // NetCache: value over the n×k ceiling
  };
  const Stats& stats() const { return stats_; }

 private:
  struct CachedEntry {
    Key key;
    Hash128 hkey;
    uint32_t idx = 0;
    uint64_t last_count = 0;
  };
  struct PendingFetch {
    Key key;
    Hash128 hkey;
    Addr server = kInvalidAddr;
    int attempts = 0;
    SimTime deadline = 0;
  };

  static constexpr uint64_t kTickArg = 0;
  static constexpr uint64_t kRebuildSweepArg = 1;

  CacheController(sim::Simulator* sim, sim::Network* net,
                  oc::OrbitProgram* orbit, nc::NetProgram* netcache,
                  size_t capacity, const kv::Partitioner* partitioner,
                  std::vector<Addr> server_addrs, Addr self_addr,
                  int self_port, const ControllerConfig& config);

  // Per-scheme seam.
  bool Admits(const Key& key);
  bool InstallEntry(const Key& key, const Hash128& hkey, uint32_t idx);
  void ReconcileSelfEvictions();
  void AdjustCacheSize();

  void Tick();
  void UpdateCacheEntries();
  void InsertKey(const Key& key, uint32_t idx);
  void EvictIdx(uint32_t idx);
  void ForgetIdx(uint32_t idx);
  void SendFetch(const Key& key, const Hash128& hkey, Addr server);
  void CheckFetchTimeouts();
  void ArmRebuildSweep();
  uint32_t AllocIdx();

  sim::Simulator* sim_;
  sim::Network* net_;
  oc::OrbitProgram* orbit_;    // exactly one of orbit_ / netcache_ is set
  nc::NetProgram* netcache_;
  const kv::Partitioner* partitioner_;
  std::vector<Addr> server_addrs_;
  Addr self_addr_;
  int self_port_;
  ControllerConfig config_;

  std::unordered_map<uint32_t, CachedEntry> by_idx_;
  std::unordered_map<Key, uint32_t> by_key_;
  std::vector<uint32_t> free_idxs_;
  // Uncached-key popularity reported this period (server top-k reports,
  // or the data plane's hot-key reports).
  std::unordered_map<Key, uint64_t> reported_;
  std::unordered_map<Key, PendingFetch> pending_fetches_;
  std::unordered_set<Key> blacklist_;  // NetCache values proven over-limit
  uint32_t fetch_seq_ = 1;
  SimTime last_snapshot_ = 0;
  bool started_ = false;
  bool rebuild_sweep_armed_ = false;

  Stats stats_;
};

}  // namespace orbit::control

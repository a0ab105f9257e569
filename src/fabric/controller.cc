#include "fabric/controller.h"

#include <algorithm>

#include "common/check.h"

namespace orbit::fabric {

FabricController::FabricController(
    sim::Simulator* sim, sim::Network* net, FabricTopology* topo,
    const kv::Partitioner* partitioner, std::vector<Addr> server_addrs,
    const std::vector<oc::OrbitProgram*>& orbit_programs,
    const std::vector<nc::NetProgram*>& net_programs,
    const FabricControllerSpec& spec)
    : topo_(topo),
      partitioner_(partitioner),
      server_addrs_(std::move(server_addrs)) {
  const int racks = topo_->num_racks();
  ORBIT_CHECK_MSG(static_cast<int>(server_addrs_.size()) % racks == 0,
                  "servers must split evenly across racks");
  degraded_.assign(static_cast<size_t>(racks), false);
  standby_.assign(static_cast<size_t>(racks), {});
  installed_extras_.assign(static_cast<size_t>(racks), {});

  for (int r = 0; r < racks; ++r) {
    const auto i = static_cast<size_t>(r);
    const Addr addr = controller_addr(r);
    ctrls_.push_back(
        spec.scheme == testbed::Scheme::kOrbitCache
            ? std::make_unique<control::CacheController>(
                  sim, net, orbit_programs[i], partitioner_, server_addrs_,
                  addr, /*self_port=*/0, spec.controller)
            : std::make_unique<control::CacheController>(
                  sim, net, net_programs[i], partitioner_, server_addrs_,
                  addr, /*self_port=*/0, spec.controller));
    const auto at =
        topo_->AttachHost(ctrls_.back().get(), addr, r, spec.ctrl_link);
    ORBIT_CHECK(at.port_a == 0);
    ctrl_links_.push_back(at.link);
  }
}

void FabricController::PreloadTopKeys(
    const wl::KeySpace& keyspace, size_t per_leaf, uint64_t max_rank,
    const std::function<bool(const Key&)>& admit) {
  const size_t racks = static_cast<size_t>(num_racks());
  std::vector<std::vector<Key>> groups(racks);
  std::vector<size_t> dealt(racks, 0);  // ranks counted against per_leaf
  // full counts the per-rack lists (dealt budget, plus the standby list on
  // a multi-rack fabric) that reached per_leaf; the scan stops once every
  // list is complete or ranks run out.
  const size_t lists = racks > 1 ? 2 : 1;
  size_t full = 0;
  for (uint64_t rank = 0; rank < max_rank && full < lists * racks; ++rank) {
    Key key = keyspace.KeyAtRank(rank);
    const auto r = static_cast<size_t>(RackOfKey(key));
    const bool admitted = !admit || admit(key);
    if (dealt[r] < per_leaf) {
      if (++dealt[r] == per_leaf) ++full;
      if (admitted) groups[r].push_back(std::move(key));
      continue;
    }
    if (!admitted) continue;
    auto& standby = standby_[r];
    if (standby.size() >= per_leaf) continue;
    standby.push_back(std::move(key));
    if (standby.size() == per_leaf) ++full;
  }
  for (size_t r = 0; r < racks; ++r) {
    if (!groups[r].empty()) ctrls_[r]->Preload(groups[r]);
  }
}

void FabricController::Start() {
  for (auto& c : ctrls_) c->Start();
}

size_t FabricController::TotalCacheSize() const {
  size_t total = 0;
  for (const auto& c : ctrls_) total += c->current_cache_size();
  return total;
}

bool FabricController::AnyDegraded() const {
  for (const bool d : degraded_)
    if (d) return true;
  return false;
}

size_t FabricController::degraded_leaves() const {
  size_t n = 0;
  for (const bool d : degraded_)
    if (d) ++n;
  return n;
}

void FabricController::OnLeafDown(int rack) {
  const auto down = static_cast<size_t>(rack);
  ORBIT_CHECK(down < degraded_.size());
  if (degraded_[down]) return;
  degraded_[down] = true;
  ++stats_.leaf_down_events;
  // Top up every non-degraded leaf with its own rack's standby keys.
  // Installing per key (rather than one batch) records exactly which keys
  // went in, so OnLeafUp withdraws only what this path added.
  for (size_t r = 0; r < degraded_.size(); ++r) {
    if (degraded_[r] || !installed_extras_[r].empty()) continue;
    for (const Key& key : standby_[r]) {
      if (ctrls_[r]->InstallExtra({key}) == 1) {
        installed_extras_[r].push_back(key);
        ++stats_.extra_keys_installed;
      }
    }
  }
}

void FabricController::OnLeafUp(int rack) {
  const auto up = static_cast<size_t>(rack);
  ORBIT_CHECK(up < degraded_.size());
  if (!degraded_[up]) return;
  degraded_[up] = false;
  ++stats_.leaf_up_events;
  if (AnyDegraded()) return;  // another leaf still in bypass; keep extras
  for (size_t r = 0; r < installed_extras_.size(); ++r) {
    for (const Key& key : installed_extras_[r]) {
      if (ctrls_[r]->WithdrawKey(key)) ++stats_.extra_keys_withdrawn;
    }
    installed_extras_[r].clear();
  }
}

void FabricController::RebuildLeaf(int rack) {
  const auto r = static_cast<size_t>(rack);
  ORBIT_CHECK(r < degraded_.size());
  ++stats_.leaf_rebuilds;
  ctrls_[r]->RebuildCache();
}

void FabricController::RegisterTelemetry(telemetry::Registry& reg) {
  const std::string who = "FabricController::RegisterTelemetry";
  reg.AddCounter(
      "fabric.ctrl.leaf_down_events",
      [this] { return stats_.leaf_down_events; }, who);
  reg.AddCounter(
      "fabric.ctrl.leaf_up_events", [this] { return stats_.leaf_up_events; },
      who);
  reg.AddCounter(
      "fabric.ctrl.extra_keys_installed",
      [this] { return stats_.extra_keys_installed; }, who);
  reg.AddCounter(
      "fabric.ctrl.extra_keys_withdrawn",
      [this] { return stats_.extra_keys_withdrawn; }, who);
  reg.AddCounter(
      "fabric.ctrl.leaf_rebuilds", [this] { return stats_.leaf_rebuilds; },
      who);
  reg.AddGauge(
      "fabric.ctrl.degraded_leaves",
      [this] { return static_cast<uint64_t>(degraded_leaves()); }, who);
}

}  // namespace orbit::fabric

#include "control/controller.h"

#include <algorithm>

#include "common/check.h"
#include "common/logging.h"

namespace orbit::control {

CacheController::CacheController(sim::Simulator* sim, sim::Network* net,
                                 oc::OrbitProgram* program,
                                 const kv::Partitioner* partitioner,
                                 std::vector<Addr> server_addrs,
                                 Addr self_addr, int self_port,
                                 const ControllerConfig& config)
    : CacheController(sim, net, program, nullptr,
                      program != nullptr ? program->config().capacity : 0,
                      partitioner, std::move(server_addrs), self_addr,
                      self_port, config) {}

CacheController::CacheController(sim::Simulator* sim, sim::Network* net,
                                 nc::NetProgram* program,
                                 const kv::Partitioner* partitioner,
                                 std::vector<Addr> server_addrs,
                                 Addr self_addr, int self_port,
                                 const ControllerConfig& config)
    : CacheController(sim, net, nullptr, program,
                      program != nullptr ? program->config().capacity : 0,
                      partitioner, std::move(server_addrs), self_addr,
                      self_port, config) {}

CacheController::CacheController(sim::Simulator* sim, sim::Network* net,
                                 oc::OrbitProgram* orbit,
                                 nc::NetProgram* netcache, size_t capacity,
                                 const kv::Partitioner* partitioner,
                                 std::vector<Addr> server_addrs,
                                 Addr self_addr, int self_port,
                                 const ControllerConfig& config)
    : sim_(sim),
      net_(net),
      orbit_(orbit),
      netcache_(netcache),
      partitioner_(partitioner),
      server_addrs_(std::move(server_addrs)),
      self_addr_(self_addr),
      self_port_(self_port),
      config_(config) {
  ORBIT_CHECK(sim != nullptr && net != nullptr && partitioner != nullptr);
  ORBIT_CHECK_MSG(orbit != nullptr || netcache != nullptr,
                  "controller needs a cache program");
  ORBIT_CHECK(config_.cache_size >= 1);
  ORBIT_CHECK_MSG(config_.cache_size <= capacity,
                  "controller cache size exceeds data-plane capacity");
  ORBIT_CHECK_MSG(config_.max_cache_size <= capacity,
                  "controller max cache size exceeds data-plane capacity");
  ORBIT_CHECK_MSG(
      orbit != nullptr || (!config_.dynamic_sizing &&
                           config_.snapshot_period == 0),
      "dynamic sizing and write-back snapshots need the OrbitCache program");
  // Free-index pool covers the full data-plane capacity; the target size
  // only limits how many are in normal use, leaving headroom for
  // degraded-mode extras.
  for (size_t i = 0; i < capacity; ++i)
    free_idxs_.push_back(static_cast<uint32_t>(capacity - 1 - i));
}

// ---- per-scheme seam --------------------------------------------------------

bool CacheController::Admits(const Key& key) {
  if (netcache_ == nullptr) return true;
  if (blacklist_.count(key) > 0) return false;
  if (key.size() <= netcache_->config().max_key_bytes) return true;
  // Hardware cannot match this key; NetCache must skip it.
  ++stats_.skipped_wide_keys;
  return false;
}

bool CacheController::InstallEntry(const Key& key, const Hash128& hkey,
                                   uint32_t idx) {
  return orbit_ != nullptr ? orbit_->InsertEntry(hkey, idx)
                           : netcache_->InsertEntry(key, idx);
}

void CacheController::ReconcileSelfEvictions() {
  // NetCache's data plane drops an entry itself when the fetched value
  // exceeds its n×k value ceiling; that key can never be cached.
  for (const Key& key : netcache_->DrainSelfEvictions()) {
    blacklist_.insert(key);
    ++stats_.blacklisted_values;
    auto it = by_key_.find(key);
    if (it != by_key_.end()) ForgetIdx(it->second);
  }
}

void CacheController::AdjustCacheSize() {
  const oc::OrbitProgram::HitOverflow ho = orbit_->ReadAndResetHitOverflow();
  if (ho.hits == 0) return;
  const double ratio =
      static_cast<double>(ho.overflows) / static_cast<double>(ho.hits);
  if (ratio > config_.overflow_threshold) {
    if (config_.cache_size > config_.min_cache_size) {
      config_.cache_size = std::max(config_.min_cache_size,
                                    config_.cache_size - config_.sizing_step);
      ++stats_.size_decreases;
    }
  } else if (config_.cache_size < config_.max_cache_size) {
    config_.cache_size = std::min(config_.max_cache_size,
                                  config_.cache_size + config_.sizing_step);
    ++stats_.size_increases;
  }
}

// ---- shared core -------------------------------------------------------------

void CacheController::Preload(const std::vector<Key>& keys) {
  for (const Key& key : keys) {
    if (by_key_.size() >= config_.cache_size) break;
    if (by_key_.count(key) > 0 || !Admits(key)) continue;
    InsertKey(key, AllocIdx());
  }
}

size_t CacheController::InstallExtra(const std::vector<Key>& keys) {
  size_t installed = 0;
  for (const Key& key : keys) {
    if (by_key_.count(key) > 0 || !Admits(key)) continue;
    if (free_idxs_.empty()) break;  // data-plane capacity exhausted
    InsertKey(key, AllocIdx());
    if (by_key_.count(key) > 0) ++installed;  // table may reject (full)
  }
  return installed;
}

bool CacheController::WithdrawKey(const Key& key) {
  auto it = by_key_.find(key);
  if (it == by_key_.end()) return false;
  EvictIdx(it->second);
  return true;
}

void CacheController::Start() {
  ORBIT_CHECK(!started_);
  started_ = true;
  sim_->AfterTimer(config_.update_period, this, kTickArg);
}

void CacheController::OnTimer(uint64_t arg) {
  if (arg == kTickArg) {
    Tick();
    return;
  }
  rebuild_sweep_armed_ = false;
  CheckFetchTimeouts();
  if (!pending_fetches_.empty()) ArmRebuildSweep();
}

void CacheController::Tick() {
  ++stats_.updates;
  CheckFetchTimeouts();
  if (netcache_ != nullptr) {
    ReconcileSelfEvictions();
    // The data plane reports each hot uncached key once per period.
    for (auto& [key, count] : netcache_->DrainHotReports())
      reported_[key] += count;
  }
  UpdateCacheEntries();
  reported_.clear();
  if (netcache_ != nullptr) netcache_->ResetSketch();
  if (config_.dynamic_sizing) AdjustCacheSize();
  if (config_.snapshot_period > 0 &&
      sim_->now() - last_snapshot_ >= config_.snapshot_period) {
    last_snapshot_ = sim_->now();
    stats_.snapshot_entries_flushed += orbit_->RequestSnapshot();
  }
  sim_->AfterTimer(config_.update_period, this, kTickArg);
}

void CacheController::UpdateCacheEntries() {
  // Refresh cached-key popularity from the data plane.
  const std::vector<uint64_t> pop = orbit_ != nullptr
                                        ? orbit_->ReadAndResetPopularity()
                                        : netcache_->ReadAndResetPopularity();
  for (auto& [idx, entry] : by_idx_) entry.last_count = pop[idx];

  // Candidate uncached keys, hottest first.
  std::vector<std::pair<uint64_t, const Key*>> candidates;
  candidates.reserve(reported_.size());
  for (const auto& [key, count] : reported_) {
    if (by_key_.count(key) > 0 || !Admits(key)) continue;
    candidates.emplace_back(count, &key);
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const auto& a, const auto& b) {
              return a.first > b.first ||
                     (a.first == b.first && *a.second < *b.second);
            });

  // Cached keys, coldest first, as eviction victims.
  std::vector<uint32_t> victims;
  victims.reserve(by_idx_.size());
  for (const auto& [idx, entry] : by_idx_) victims.push_back(idx);
  std::sort(victims.begin(), victims.end(), [this](uint32_t a, uint32_t b) {
    return by_idx_.at(a).last_count < by_idx_.at(b).last_count;
  });

  size_t v = 0;
  for (const auto& [count, keyp] : candidates) {
    // Fill spare capacity first (e.g. after a size increase).
    if (by_key_.size() < config_.cache_size) {
      InsertKey(*keyp, AllocIdx());
      continue;
    }
    if (v >= victims.size()) break;
    CachedEntry& victim = by_idx_.at(victims[v]);
    if (count <= victim.last_count) break;  // remaining candidates are colder
    // Replace: the new key inherits the victim's CacheIdx (§3.8) so pending
    // requests for the evicted key are answered by the new cache packet and
    // resolved by the client-side collision mechanism.
    const uint32_t idx = victim.idx;
    EvictIdx(idx);
    free_idxs_.pop_back();  // EvictIdx released it; reuse immediately
    InsertKey(*keyp, idx);
    ++v;
  }

  // Shrink to a target that dynamic sizing lowered. Without sizing the
  // target never drops, and entries beyond it are degraded-mode extras
  // (InstallExtra) that the fabric controller withdraws itself.
  if (!config_.dynamic_sizing) return;
  while (by_key_.size() > config_.cache_size && v < victims.size()) {
    EvictIdx(victims[v]);
    ++v;
  }
}

void CacheController::InsertKey(const Key& key, uint32_t idx) {
  const Hash128 hkey = HashKey128(key);
  if (!InstallEntry(key, hkey, idx)) {
    LOG_WARN(name() << ": lookup table rejected insert for " << key);
    free_idxs_.push_back(idx);
    return;
  }
  by_idx_[idx] = CachedEntry{key, hkey, idx, 0};
  by_key_[key] = idx;
  ++stats_.insertions;
  SendFetch(key, hkey, server_addrs_[partitioner_->ServerFor(key)]);
}

void CacheController::EvictIdx(uint32_t idx) {
  auto it = by_idx_.find(idx);
  ORBIT_CHECK(it != by_idx_.end());
  if (orbit_ != nullptr)
    orbit_->EraseEntry(it->second.hkey);
  else
    netcache_->EraseEntry(it->second.key);
  ForgetIdx(idx);
}

// Drops the controller's record of `idx` (the data-plane entry is already
// gone) and returns the index to the free pool.
void CacheController::ForgetIdx(uint32_t idx) {
  auto it = by_idx_.find(idx);
  ORBIT_CHECK(it != by_idx_.end());
  pending_fetches_.erase(it->second.key);
  by_key_.erase(it->second.key);
  by_idx_.erase(it);
  free_idxs_.push_back(idx);
  ++stats_.evictions;
}

uint32_t CacheController::AllocIdx() {
  ORBIT_CHECK_MSG(!free_idxs_.empty(), "no free cache indices");
  const uint32_t idx = free_idxs_.back();
  free_idxs_.pop_back();
  return idx;
}

void CacheController::SendFetch(const Key& key, const Hash128& hkey,
                                Addr server) {
  PendingFetch& pf = pending_fetches_[key];
  pf.key = key;
  pf.hkey = hkey;
  pf.server = server;
  // Exponential backoff (capped at 32x): right after a fault the fabric is
  // congested with client retries and a server's FIFO can hold tens of
  // milliseconds of backlog, so a fixed short deadline would burn the whole
  // attempt budget before a single round trip can complete.
  pf.deadline =
      sim_->now() + (config_.fetch_timeout << std::min(pf.attempts, 5));
  ++pf.attempts;
  ++stats_.fetches_sent;

  proto::Message msg;
  msg.op = proto::Op::kFetchReq;
  msg.seq = fetch_seq_++;
  msg.hkey = hkey;
  msg.key = key;
  net_->Send(this, self_port_,
             sim::MakePacket(self_addr_, server, config_.orbit_port,
                             config_.orbit_port, std::move(msg)));
}

void CacheController::CheckFetchTimeouts() {
  std::vector<Key> retry;
  std::vector<Key> give_up;
  for (const auto& [key, pf] : pending_fetches_) {
    if (pf.deadline > sim_->now()) continue;
    (pf.attempts >= config_.max_fetch_attempts ? give_up : retry)
        .push_back(key);
  }
  for (const Key& key : retry) {
    PendingFetch pf = pending_fetches_[key];
    ++stats_.fetch_retries;
    SendFetch(pf.key, pf.hkey, pf.server);
  }
  for (const Key& key : give_up) {
    ++stats_.fetch_failures;
    auto it = by_key_.find(key);
    if (it != by_key_.end()) EvictIdx(it->second);
    pending_fetches_.erase(key);
  }
}

void CacheController::RebuildCache() {
  pending_fetches_.clear();
  for (const auto& [idx, entry] : by_idx_) {
    // Re-install unconditionally; the data plane was wiped so Insert
    // cannot conflict.
    ORBIT_CHECK(InstallEntry(entry.key, entry.hkey, idx));
    SendFetch(entry.key, entry.hkey,
              server_addrs_[partitioner_->ServerFor(entry.key)]);
  }
  // Right after a reset the fabric is congested with client retries, so
  // refetches are likely to drown; the periodic update may be far off (or
  // never started), so sweep on the fetch-timeout cadence until every
  // refetch settles (success or give-up).
  if (!pending_fetches_.empty()) ArmRebuildSweep();
}

void CacheController::ArmRebuildSweep() {
  if (rebuild_sweep_armed_) return;
  rebuild_sweep_armed_ = true;
  sim_->AfterTimer(config_.fetch_timeout, this, kRebuildSweepArg);
}

void CacheController::RequestRefetch(const Key& key, const Hash128& hkey,
                                     Addr server) {
  // Scheduled after the CPU turnaround; retries ride the normal timeout
  // machinery.
  sim_->After(config_.cpu_delay, [this, key, hkey, server] {
    if (by_key_.count(key) == 0) return;  // evicted meanwhile
    SendFetch(key, hkey, server);
  });
}

void CacheController::OnPacket(sim::PacketPtr pkt, int /*port*/) {
  using proto::Op;
  switch (pkt->msg.op) {
    case Op::kFetchRep:
      sim::MarkEnd(*pkt, sim::PacketEnd::kConsumed);
      pending_fetches_.erase(pkt->msg.key);
      return;
    case Op::kTopKReport: {
      // One report packet per hot key; the count rides in value.version.
      sim::MarkEnd(*pkt, sim::PacketEnd::kConsumed);
      ++stats_.reports_received;
      reported_[pkt->msg.key] += pkt->msg.value.version();
      return;
    }
    default:
      sim::MarkEnd(*pkt, sim::PacketEnd::kIgnored);
      LOG_DEBUG(name() << ": ignoring " << proto::OpName(pkt->msg.op));
  }
}

}  // namespace orbit::control

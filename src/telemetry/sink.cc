#include "telemetry/sink.h"

#include "common/check.h"

namespace orbit::telemetry {

const char* HopKindName(HopKind kind) {
  switch (kind) {
    case HopKind::kClientTx: return "client_tx";
    case HopKind::kLink: return "link";
    case HopKind::kPipeline: return "pipeline";
    case HopKind::kRecirc: return "recirc";
    case HopKind::kCacheWait: return "cache_wait";
    case HopKind::kServerRx: return "srv_rx";
    case HopKind::kServerQueue: return "srv_queue";
    case HopKind::kServerProcess: return "srv_process";
    case HopKind::kClientRx: return "client_rx";
    case HopKind::kTimeout: return "timeout";
    case HopKind::kDrop: return "drop";
    case HopKind::kFault: return "fault";
  }
  return "?";
}

bool HopKindCloses(HopKind kind) {
  return kind == HopKind::kCacheWait || kind == HopKind::kClientRx ||
         kind == HopKind::kTimeout;
}

uint32_t Sink::Site(const std::string& name) {
  auto it = site_ids_.find(name);
  if (it != site_ids_.end()) return it->second;
  const uint32_t id = static_cast<uint32_t>(sites_.size());
  sites_.push_back(name);
  site_ids_.emplace(name, id);
  return id;
}

uint32_t Sink::Hist(const std::string& name, const std::string& unit) {
  auto it = hist_ids_.find(name);
  if (it != hist_ids_.end()) return it->second;
  const uint32_t id = static_cast<uint32_t>(hists_.size());
  hists_.push_back(NamedHist{name, unit, stats::Histogram{}});
  hist_ids_.emplace(name, id);
  return id;
}

FlowRec& Sink::flow(uint32_t handle) {
  ORBIT_CHECK_MSG(handle != 0 && handle <= flows_.size(),
                  "unknown flow handle " << handle);
  return flows_[handle - 1];
}

uint32_t Sink::OpenFlow(Addr client, uint32_t seq, uint8_t op, SimTime at) {
  if (opts_.sample_every == 0 || seq % opts_.sample_every != 0) return 0;
  FlowRec rec;
  rec.id = MakeFlowId(client, seq);
  rec.op = op;
  rec.started_at = at;
  flows_.push_back(rec);
  return static_cast<uint32_t>(flows_.size());
}

void Sink::Write(const HopRecord& rec) {
  if (rec.flow != 0) {
    FlowRec& f = flow(rec.flow);
    if (f.hops >= kMaxHopsPerFlow) {
      ++f.truncated_hops;
      return;
    }
    ++f.hops;
  }
  records_.push_back(rec);
}

void Sink::CloseFlow(uint32_t handle, SimTime at, const char* outcome) {
  FlowRec& f = flow(handle);
  f.finished_at = at;
  f.outcome = outcome;
}

void Sink::Drain(StreamCapture* out) {
  out->sites = sites_;
  out->flows = std::move(flows_);
  flows_.clear();
  out->records = std::move(records_);
  records_.clear();
  out->hists.clear();
  for (NamedHist& h : hists_) {
    // RecordFast populations carry only buckets until finalized here.
    h.hist.FinalizeFromBuckets();
    if (h.hist.count() == 0) continue;  // quiet links etc. add no rows
    HistSnapshot snap;
    snap.name = h.name;
    snap.unit = h.unit;
    snap.count = h.hist.count();
    snap.min = h.hist.min();
    snap.max = h.hist.max();
    snap.mean = h.hist.mean();
    snap.p50 = h.hist.Percentile(0.50);
    snap.p90 = h.hist.Percentile(0.90);
    snap.p99 = h.hist.Percentile(0.99);
    snap.p999 = h.hist.Percentile(0.999);
    out->hists.push_back(std::move(snap));
  }
}

}  // namespace orbit::telemetry

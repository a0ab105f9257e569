// The per-packet observability stream.
//
// One Sink is built per instrumented run. A sampled request opens a *flow*
// at its client; the packet then carries the flow's handle
// (sim::Packet::flow) and every instrumented site it passes — client NIC,
// link, switch pipeline, recirculation port, request table, server queue,
// drop points — writes one HopRecord into the sink. PRE clones and replies
// inherit the handle, so one flow follows the whole request lifecycle.
// Flow-less events (fault instants) are written with flow 0.
//
// Sampling is structural, not random: a request opens a flow iff its
// client sequence number is a multiple of `sample_every`, and its flow id
// is a pure function of (client address, seq), so serial and `--jobs N`
// runs collect byte-identical streams. Every timestamp is simulated time.
//
// The one record list has two exporters: Chrome trace-event JSON for
// Perfetto (telemetry/export.h, `--trace-out`) and INT-MD-style postcard
// JSONL, one line per flow (harness/telemetry_io.h, `--int-out`).
//
// Next to the sampled records the sink owns *always-on* log-bucketed
// histograms (stats::Histogram): latency per hop class, queue depth per
// link direction, orbit count per cached key, value size. Recording is a
// couple of arithmetic ops plus a bucket increment — cheap enough to run
// unsampled — and everything is keyed by ids interned once at attach time.
//
// Results-neutrality: the sink schedules no simulator events, draws no
// randomness, and no forwarding decision reads a packet's flow handle, so
// attaching it cannot change a run's metrics or fingerprint.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/types.h"
#include "stats/histogram.h"

namespace orbit::telemetry {

// What a hop record describes. Most kinds open an interval at the record's
// time; the closing kinds (HopKindCloses) account for time that *ended*
// there, e.g. client_rx carries the request's end-to-end latency.
enum class HopKind : uint8_t {
  kClientTx = 0,   // client NIC, request leaves the host
  kLink,           // committed to a link (queue + serialization + prop)
  kPipeline,       // rmt pipeline traversal (wait behind the pipe + latency)
  kRecirc,         // recirculation orbit pass
  kCacheWait,      // OrbitCache request-table wait, closed at serve time
  kServerRx,       // server NIC admission
  kServerQueue,    // server worker FIFO wait
  kServerProcess,  // server service time
  kClientRx,       // reply back at the client (end of flow)
  kTimeout,        // client gave the request up (end of flow)
  kDrop,           // packet died here (drop says why)
  kFault,          // flow-less fault-injection instant
};
const char* HopKindName(HopKind kind);
bool HopKindCloses(HopKind kind);

// One record written at one site. `detail` must point at static storage
// (a string literal): records are written on hot paths and never allocate.
// `value` is the one numeric payload; its meaning depends on the kind:
//   link, recirc, recirc drop    bytes queued ahead on arrival
//   pipeline                     ns of wait behind the pipe
//   srv_*, server rx drop        requests in the server's queue
//   client_tx                    requests pending at the client; for a
//                                "retransmit" the attempt number
//   fault                        the server, rack or spine it names
// Postcards export it as "queue_depth", the Chrome trace as "value".
struct HopRecord {
  SimTime at = 0;
  SimTime dur = 0;  // time this hop accounts for; 0 = instant
  int64_t value = 0;
  const char* detail = nullptr;  // e.g. the pipeline pass's decision
  uint32_t flow = 0;             // flow handle; 0 = flow-less
  uint32_t site = 0;             // Sink::Site id
  uint32_t recirc = 0;           // the packet's recirculation count
  HopKind kind = HopKind::kLink;
  uint8_t drop = 0;  // 0 = none, else 1 + sim::DropReason
};

// Stable request identity: client address in the high 32 bits, the
// client-assigned sequence number in the low 32.
inline uint64_t MakeFlowId(Addr client, uint32_t seq) {
  return (static_cast<uint64_t>(client) << 32) | seq;
}

// One sampled request flow. Handle h (as carried by packets) names
// flows[h - 1].
struct FlowRec {
  uint64_t id = 0;  // MakeFlowId of the opening request
  uint8_t op = 0;   // proto::Op of the opening request
  SimTime started_at = 0;
  SimTime finished_at = 0;      // 0 = never completed (in flight at stop)
  const char* outcome = "";     // static literal: "read_cached", "timeout", …
  uint32_t hops = 0;            // records kept for this flow
  uint32_t truncated_hops = 0;  // records dropped past the per-flow cap
};

// Compact end-of-run summary of one always-on histogram. Live
// stats::Histogram objects eagerly allocate ~9KB of buckets, so captures
// keep these few-word snapshots instead.
struct HistSnapshot {
  std::string name;
  std::string unit;
  uint64_t count = 0;
  int64_t min = 0;
  int64_t max = 0;
  double mean = 0;
  int64_t p50 = 0;
  int64_t p90 = 0;
  int64_t p99 = 0;
  int64_t p999 = 0;
};

// Everything the sink collected for one run; lives inside
// telemetry::RunCapture next to the counter snapshots.
struct StreamCapture {
  std::vector<std::string> sites;   // HopRecord::site indexes this
  std::vector<FlowRec> flows;       // in open order
  std::vector<HopRecord> records;   // in write order
  std::vector<HistSnapshot> hists;

  bool empty() const { return records.empty() && hists.empty(); }
};

// The per-run collector. Components intern their site and histogram names
// once at attach time and then write through integer ids on the hot path.
// Single-threaded, like everything inside one simulation.
class Sink {
 public:
  struct Options {
    // A request opens a flow iff seq % sample_every == 0 for its client.
    // 0 opens none (flow-less records and histograms still work).
    uint32_t sample_every = 0;
    // Always-on histograms (recorded for every packet, not just flows).
    bool histograms = false;
  };

  // Bounds per-flow memory; generous next to the paper's single-digit
  // orbit counts but finite under pathological recirculation.
  static constexpr uint32_t kMaxHopsPerFlow = 256;

  explicit Sink(const Options& opts) : opts_(opts) {}

  // Interns a site name ("leaf0.pipeline", "link.3.tor->server-0"),
  // returning its stable id. Each site is one Perfetto track.
  uint32_t Site(const std::string& name);

  // Interns an always-on histogram under `name` (unit is documentation
  // carried into the snapshot: "ns", "bytes", "orbits"). Same name ->
  // same histogram, so shared hop classes aggregate across devices.
  uint32_t Hist(const std::string& name, const std::string& unit);

  // Records into an interned histogram; no-op unless histograms are on.
  // Bucket-only on the way in (stats::Histogram::RecordFast); Drain
  // finalizes count/min/max/mean from the buckets.
  void Record(uint32_t hist_id, int64_t value) {
    if (opts_.histograms) hists_[hist_id].hist.RecordFast(value);
  }

  // Direct histogram pointer for per-packet hot paths (links), skipping
  // the flag check and id indexing on every record; nullptr when
  // histograms are off. Stable for the run: hists_ is a deque.
  stats::Histogram* MutableHist(uint32_t hist_id) {
    return opts_.histograms ? &hists_[hist_id].hist : nullptr;
  }

  // Opens a flow for the request (client, seq) when it is sampled and
  // returns the packet-borne handle; 0 = not sampled.
  uint32_t OpenFlow(Addr client, uint32_t seq, uint8_t op, SimTime at);

  // Appends a record. Records of a flow past kMaxHopsPerFlow bump its
  // truncated_hops instead (a saturated orbit can recirculate one packet
  // thousands of times).
  void Write(const HopRecord& rec);

  // Marks a flow complete. `outcome` must be a static string literal.
  void CloseFlow(uint32_t flow, SimTime at, const char* outcome);

  // Moves the stream and snapshots the histograms into `out`. Call once
  // at end of run; empty histograms are skipped.
  void Drain(StreamCapture* out);

 private:
  struct NamedHist {
    std::string name;
    std::string unit;
    stats::Histogram hist;
  };

  FlowRec& flow(uint32_t handle);

  Options opts_;
  std::vector<std::string> sites_;
  std::unordered_map<std::string, uint32_t> site_ids_;
  std::deque<NamedHist> hists_;  // deque: MutableHist pointers stay valid
  std::unordered_map<std::string, uint32_t> hist_ids_;
  std::vector<FlowRec> flows_;
  std::vector<HopRecord> records_;
};

}  // namespace orbit::telemetry

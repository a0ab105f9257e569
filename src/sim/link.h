// Full-duplex point-to-point links.
//
// Each direction is a fluid-FIFO channel: a packet occupies the wire for
// wire_bytes * 8 / rate, queues behind earlier packets (drop-tail against a
// byte bound), then arrives after the propagation delay. This captures the
// three effects the experiments depend on — serialization time growing with
// item size, queueing at saturated ports, and bounded buffers — without
// simulating per-byte transmission.
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "common/random.h"
#include "common/types.h"
#include "sim/packet.h"
#include "telemetry/sink.h"

namespace orbit::sim {

class Node;
class Simulator;

// Two-state Gilbert–Elliott burst-loss model. The channel sits in a
// "good" or "bad" state; each packet first moves the state with the
// transition probabilities, then is dropped with the state's loss rate.
// Disabled (zero RNG draws) unless p_enter_bad > 0, so enabling the
// fields is the only way results can change.
struct GilbertElliottConfig {
  double p_enter_bad = 0.0;  // per-packet P(good -> bad); 0 disables
  double p_exit_bad = 0.1;   // per-packet P(bad -> good)
  double loss_good = 0.0;    // per-packet loss while good
  double loss_bad = 1.0;     // per-packet loss while bad
  bool enabled() const { return p_enter_bad > 0; }
};

struct LinkConfig {
  double rate_gbps = 100.0;
  SimTime propagation = 500;           // ns, one way
  uint32_t queue_limit_bytes = 512 * 1024;  // per direction
  // Failure injection: independent per-packet loss probability. The paper
  // handles loss with application-level timeouts (§3.9); tests use this to
  // exercise the controller's fetch retransmission and client timeouts.
  double loss_rate = 0.0;
  // Base seed for the loss RNG. Network::Connect mixes the link's creation
  // index into this so lossy links never drop the same-numbered packets in
  // lockstep; the RNG is only ever drawn when a loss model is enabled, so
  // lossless results are unaffected by the seed.
  uint64_t loss_seed = 1;
  // Bursty (correlated) loss; composes with loss_rate (either can drop).
  GilbertElliottConfig burst_loss;
};

// Why a packet died before its next hop. Links drop for the first three
// (counted in ChannelStats); the last is the switch losing packets that
// were in its recirculation loop at a reboot barrier.
enum class DropReason : uint8_t {
  kQueueOverflow,  // egress / recirculation / server admission queue full
  kInjectedLoss,   // LinkConfig loss_rate / burst_loss / degrade coin
  kLinkDown,       // fault injection took the link down
  kSwitchReset,    // in the recirculation loop when the ASIC rebooted
};
const char* DropReasonName(DropReason reason);

struct ChannelStats {
  uint64_t packets = 0;
  uint64_t bytes = 0;
  uint64_t drops = 0;       // queue overflow
  uint64_t lost = 0;        // injected loss (random / burst models)
  uint64_t down_drops = 0;  // discarded while the link was down
};

class Link {
 public:
  // Endpoint i = {node, port on that node}.
  Link(Simulator* sim, Node* a, int port_a, Node* b, int port_b,
       const LinkConfig& config);

  // Sends from endpoint `from` (0 = a, 1 = b) toward the opposite end.
  // `extra_delay` lets a sender account for local processing (e.g. the
  // switch pipeline traversal) before the packet reaches the port.
  void Send(int from, PacketPtr pkt, SimTime extra_delay = 0);

  const ChannelStats& stats(int from) const { return chans_[from].stats; }
  const LinkConfig& config() const { return config_; }

  // Endpoint node i (0 = a, 1 = b) as passed to the constructor; direction
  // `from` runs endpoint(from) -> endpoint(1 - from). Used by telemetry to
  // name per-link counters.
  Node* endpoint(int end) const { return chans_[1 - end].to; }

  // Fault injection: while down, every packet offered to either direction
  // is discarded (DropReason::kLinkDown) without touching the loss RNG, so
  // bringing a link down and back up never perturbs later loss draws.
  void set_down(bool down) { down_ = down; }
  bool down() const { return down_; }

  // Gray-link injection for one direction (`from` = 0 for a->b): every
  // packet sent that way is additionally dropped with `loss_rate` and, if
  // it survives, delivered `extra_latency` ns late. The loss coin is only
  // drawn while the degrade is active, so SetDegrade(from, 0, 0) restores
  // the link without perturbing the shared loss RNG for later draws.
  void SetDegrade(int from, double loss_rate, SimTime extra_latency);
  bool degraded(int from) const {
    return chans_[from].degrade_loss > 0 || chans_[from].degrade_latency > 0;
  }

  // Telemetry attachment for direction `from` (0 = a->b, 1 = b->a):
  // `site` is the direction's interned site, `queue_hist` its always-on
  // queue-depth histogram, `latency_hist` the shared link hop-class
  // latency histogram. Observational only — Send's drop/queue decisions
  // are unchanged. See telemetry::AttachLinkSink for the naming policy.
  void AttachSink(telemetry::Sink* sink, uint32_t latency_hist, int from,
                  uint32_t site, uint32_t queue_hist) {
    sink_ = sink;
    // Resolve histogram pointers once here: Send records per packet, so
    // it branches on one pointer instead of re-checking the sink's flag
    // and re-indexing its table every time.
    latency_hist_ = sink->MutableHist(latency_hist);
    chans_[from].site = site;
    chans_[from].queue_hist = sink->MutableHist(queue_hist);
  }

 private:
  struct Channel {
    Node* to = nullptr;
    int to_port = -1;
    SimTime busy_until = 0;
    ChannelStats stats;
    uint32_t site = 0;  // telemetry site of this direction
    // Always-on queue-depth histogram; nullptr when histograms are off.
    stats::Histogram* queue_hist = nullptr;
    // Gray-link degrade state for this direction (see SetDegrade).
    double degrade_loss = 0.0;
    SimTime degrade_latency = 0;
  };

  SimTime TxTime(uint32_t bytes) const;
  bool LossCoin();
  // Counts nothing (callers bump ChannelStats); writes the drop record
  // of a sampled packet.
  void WriteDrop(const Channel& ch, const Packet& pkt,
                 DropReason reason) const;

  Simulator* sim_;
  LinkConfig config_;
  std::array<Channel, 2> chans_;
  Rng loss_rng_;
  bool down_ = false;
  bool in_bad_state_ = false;
  telemetry::Sink* sink_ = nullptr;  // not owned; null = uninstrumented
  stats::Histogram* latency_hist_ = nullptr;
};

}  // namespace orbit::sim

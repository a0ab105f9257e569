// The per-packet observability stream (telemetry/sink.h): one flow handle
// follows a request through every hop site (correction retries and
// retransmits included), each site writes one record, drops write exactly
// one drop record, the per-flow hop cap bounds memory,
// and the network-wide drop counters are sums over the links' own stats.
#include "telemetry/sink.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "apps/client.h"
#include "apps/server.h"
#include "common/hash.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "telemetry/counters.h"
#include "telemetry/netstats.h"
#include "testbed/testbed.h"

namespace orbit::telemetry {
namespace {

// ---- helpers ----------------------------------------------------------------

testbed::TestbedConfig TinyConfig(testbed::Scheme scheme) {
  testbed::TestbedConfig cfg;
  cfg.scheme = scheme;
  cfg.topo.num_clients = 2;
  cfg.topo.num_servers = 4;
  cfg.workload.num_keys = 2'000;
  cfg.topo.server_rate_rps = 100'000;
  cfg.topo.client_rate_rps = 400'000;
  cfg.warmup = 2 * kMillisecond;
  cfg.duration = 10 * kMillisecond;
  return cfg;
}

StreamCapture RunStream(testbed::Scheme scheme) {
  RunCapture cap;
  testbed::TestbedConfig cfg = TinyConfig(scheme);
  cfg.telemetry.capture = &cap;
  cfg.telemetry.trace_sample = 8;
  testbed::RunTestbed(cfg);
  return std::move(cap.stream);
}

// The records of flow handle `flow`, in write order.
std::vector<HopRecord> FlowRecords(const StreamCapture& sc, uint32_t flow) {
  std::vector<HopRecord> out;
  for (const HopRecord& rec : sc.records)
    if (rec.flow == flow) out.push_back(rec);
  return out;
}

// The first flow whose records include every kind in `kinds`.
uint32_t FindFlow(const StreamCapture& sc, const char* outcome,
                  const std::vector<HopKind>& kinds) {
  for (uint32_t h = 1; h <= sc.flows.size(); ++h) {
    if (std::string(sc.flows[h - 1].outcome) != outcome) continue;
    const std::vector<HopRecord> recs = FlowRecords(sc, h);
    bool all = true;
    for (HopKind kind : kinds) {
      bool seen = false;
      for (const HopRecord& rec : recs) seen = seen || rec.kind == kind;
      all = all && seen;
    }
    if (all) return h;
  }
  return 0;
}

class SinkNode : public sim::Node {
 public:
  void OnPacket(sim::PacketPtr, int) override { ++received; }
  std::string name() const override { return "sink"; }
  int received = 0;
};

// ---- one flow end to end ------------------------------------------------------

TEST(HopStream, OrbitCacheHitKeepsOneFlowEndToEnd) {
  const StreamCapture sc = RunStream(testbed::Scheme::kOrbitCache);
  const uint32_t flow =
      FindFlow(sc, "read_cached",
               {HopKind::kPipeline, HopKind::kRecirc, HopKind::kCacheWait});
  ASSERT_NE(flow, 0u) << "no cache hit with a served recirc pass sampled";
  const std::vector<HopRecord> recs = FlowRecords(sc, flow);
  // Sent by the client, absorbed in the pipeline, answered by a cache
  // packet after its wait, the serving clone's orbit pass recorded, and
  // closed at the client with the end-to-end latency.
  EXPECT_EQ(recs.front().kind, HopKind::kClientTx);
  EXPECT_STREQ(recs.front().detail, "read");
  EXPECT_EQ(recs[2].kind, HopKind::kPipeline);
  EXPECT_STREQ(recs[2].detail, "absorb");
  EXPECT_EQ(sc.sites.at(recs[2].site), "tor.pipeline");
  EXPECT_EQ(recs.back().kind, HopKind::kClientRx);
  EXPECT_STREQ(recs.back().detail, "read_cached");
  const FlowRec& f = sc.flows[flow - 1];
  EXPECT_EQ(recs.back().dur, f.finished_at - f.started_at);
  EXPECT_EQ((f.id & 0xffffffffu) % 8, 0u) << "structural sampling on seq";
  size_t wait = 0;
  for (const HopRecord& rec : recs) {
    if (rec.kind != HopKind::kCacheWait) continue;
    ++wait;
    EXPECT_GT(rec.dur, 0);
    EXPECT_EQ(sc.sites.at(rec.site), "tor.request_table");
  }
  EXPECT_EQ(wait, 1u);
}

TEST(HopStream, NetCacheMissKeepsOneFlowThroughTheServer) {
  const StreamCapture sc = RunStream(testbed::Scheme::kNetCache);
  // A sampled read the switch missed: its first pipeline pass says so.
  uint32_t flow = 0;
  for (uint32_t h = 1; h <= sc.flows.size() && flow == 0; ++h) {
    if (std::string(sc.flows[h - 1].outcome) != "read_server") continue;
    for (const HopRecord& rec : FlowRecords(sc, h)) {
      if (rec.kind != HopKind::kPipeline) continue;
      if (std::string(rec.detail) == "lookup_miss") flow = h;
      break;
    }
  }
  ASSERT_NE(flow, 0u) << "no switch-missed read sampled";
  const std::vector<HopRecord> recs = FlowRecords(sc, flow);
  EXPECT_EQ(recs.front().kind, HopKind::kClientTx);
  EXPECT_EQ(recs.back().kind, HopKind::kClientRx);
  // client -> tor -> server -> tor -> client: four link commits and two
  // pipeline passes, the first labeled by the program's decision.
  size_t links = 0, passes = 0, servers = 0;
  for (size_t i = 0; i < recs.size(); ++i) {
    if (recs[i].kind == HopKind::kLink) {
      ++links;
      EXPECT_NE(sc.sites.at(recs[i].site).find("->"), std::string::npos);
    }
    if (recs[i].kind == HopKind::kPipeline) ++passes;
    if (recs[i].kind != HopKind::kServerRx) continue;
    // The server's three records share the admission time; processing
    // starts after the queue wait.
    ++servers;
    ASSERT_LT(i + 2, recs.size());
    EXPECT_EQ(recs[i + 1].kind, HopKind::kServerQueue);
    EXPECT_EQ(recs[i + 2].kind, HopKind::kServerProcess);
    EXPECT_EQ(recs[i + 2].at, recs[i].at + recs[i + 1].dur);
    EXPECT_EQ(sc.sites.at(recs[i].site).rfind("server-", 0), 0u);
  }
  EXPECT_EQ(links, 4u);
  EXPECT_EQ(passes, 2u);
  EXPECT_EQ(servers, 1u);
}

// ---- correction retries -------------------------------------------------------

// Stands in for switch + server: answers reads, the first one with the
// wrong key (a hash collision the client must correct, §3.6).
class CollidingPeer : public sim::Node {
 public:
  explicit CollidingPeer(sim::Network* net) : net_(net) {}
  void OnPacket(sim::PacketPtr pkt, int) override {
    proto::Message rep = pkt->msg;
    rep.op = proto::Op::kReadRep;
    rep.value = kv::Value::Synthetic(64, 1);
    if (!collided_ && pkt->msg.op == proto::Op::kReadReq) {
      rep.key = "WRONG-KEY-000000";
      collided_ = true;
    }
    net_->Send(this, 0,
               sim::MakePacket(pkt->dst, pkt->src, pkt->dport, pkt->sport,
                               std::move(rep)));
  }
  std::string name() const override { return "peer"; }

 private:
  sim::Network* net_;
  bool collided_ = false;
};

class OneKey : public app::WorkloadSource {
 public:
  Request Next(Rng&) override {
    Request req;
    req.key = "the-one-key-0000";
    req.hkey = HashKey128(req.key);
    req.server = 2;
    return req;
  }
};

TEST(HopStream, CorrectionRetryKeepsItsFlow) {
  sim::Simulator simulator;
  sim::Network net(&simulator);
  app::ClientConfig ccfg;
  ccfg.addr = 1;
  ccfg.rate_rps = 10'000;
  app::ClientNode client(&simulator, &net, 0, ccfg, std::make_shared<OneKey>());
  CollidingPeer peer(&net);
  net.Connect(&client, &peer, sim::LinkConfig{});
  Sink sink({/*sample_every=*/1, /*histograms=*/false});
  client.SetSink(&sink);
  client.Start();
  simulator.RunUntil(2 * kMillisecond);
  client.Stop();
  ASSERT_EQ(client.stats().collisions, 1u);

  StreamCapture sc;
  sink.Drain(&sc);
  // The correction is sent under a new seq but opens no flow of its own:
  // it continues the colliding read's flow, which ends served by it.
  uint32_t corrected = 0;
  for (const HopRecord& rec : sc.records)
    if (rec.kind == HopKind::kClientTx &&
        std::string(rec.detail) == "correction")
      corrected = rec.flow;
  ASSERT_NE(corrected, 0u);
  const std::vector<HopRecord> recs = FlowRecords(sc, corrected);
  ASSERT_EQ(recs.size(), 3u);
  EXPECT_STREQ(recs[0].detail, "read");
  EXPECT_STREQ(recs[1].detail, "correction");
  EXPECT_EQ(recs[2].kind, HopKind::kClientRx);
  const FlowRec& f = sc.flows[corrected - 1];
  EXPECT_EQ(f.op, static_cast<uint8_t>(proto::Op::kReadReq));
  EXPECT_STREQ(f.outcome, "read_correction");
  EXPECT_EQ(sc.flows.size() + 1, client.stats().tx_requests)
      << "every send but the correction opened a flow";
}

TEST(HopStream, RetransmitsCarryTheirAttemptNumber) {
  sim::Simulator simulator;
  sim::Network net(&simulator);
  app::ClientConfig ccfg;
  ccfg.addr = 1;
  ccfg.rate_rps = 1'000;
  ccfg.request_timeout = 100 * kMicrosecond;
  ccfg.max_retries = 2;
  app::ClientNode client(&simulator, &net, 0, ccfg, std::make_shared<OneKey>());
  SinkNode blackhole;  // never answers
  net.Connect(&client, &blackhole, sim::LinkConfig{});
  Sink sink({/*sample_every=*/1, /*histograms=*/false});
  client.SetSink(&sink);
  client.Start();
  simulator.RunUntil(2 * kMillisecond);
  client.Stop();

  StreamCapture sc;
  sink.Drain(&sc);
  // Send, two retransmits (value = attempt), then the give-up record.
  const std::vector<HopRecord> recs = FlowRecords(sc, 1);
  ASSERT_EQ(recs.size(), 4u);
  EXPECT_STREQ(recs[0].detail, "read");
  EXPECT_EQ(recs[0].value, 0) << "nothing else pending at the first send";
  EXPECT_STREQ(recs[1].detail, "retransmit");
  EXPECT_EQ(recs[1].value, 1);
  EXPECT_STREQ(recs[2].detail, "retransmit");
  EXPECT_EQ(recs[2].value, 2);
  EXPECT_EQ(recs[3].kind, HopKind::kTimeout);
  EXPECT_STREQ(sc.flows[0].outcome, "timeout");
}

// ---- drops ---------------------------------------------------------------------

TEST(HopStream, LinkDropWritesOneDropRecord) {
  sim::Simulator simulator;
  sim::Network net(&simulator);
  SinkNode a, b;
  sim::LinkConfig link;
  link.loss_rate = 1.0;  // every packet dies on the coin
  const auto att = net.Connect(&a, &b, link);
  Sink sink({/*sample_every=*/1, /*histograms=*/false});
  AttachLinkSink(sink, net);

  auto pkt = sim::NewPacket(1, 2, 5008, 5008);
  pkt->flow = sink.OpenFlow(1, 7, 0, 0);
  net.Send(&a, att.port_a, std::move(pkt));
  simulator.RunToCompletion();

  StreamCapture sc;
  sink.Drain(&sc);
  ASSERT_EQ(sc.records.size(), 1u);
  const HopRecord& rec = sc.records[0];
  EXPECT_EQ(rec.kind, HopKind::kDrop);
  EXPECT_EQ(rec.flow, 1u);
  EXPECT_EQ(rec.drop, 1 + static_cast<int>(sim::DropReason::kInjectedLoss));
  EXPECT_EQ(sc.sites.at(rec.site), "link.0.sink->sink");
  EXPECT_EQ(b.received, 0);
  EXPECT_EQ(att.link->stats(0).lost, 1u);
}

TEST(HopStream, ServerRxQueueDropWritesOneDropRecord) {
  sim::Simulator simulator;
  sim::Network net(&simulator);
  SinkNode client;
  app::ServerConfig scfg;
  scfg.addr = 2;
  scfg.srv_id = 3;
  scfg.rx_queue_limit = 1;
  scfg.service_rate_rps = 1'000;  // the first request holds the queue
  app::ServerNode server(&simulator, &net, 0, scfg,
                         [](const Key&) { return 64u; });
  const auto att = net.Connect(&client, &server, sim::LinkConfig{});
  Sink sink({/*sample_every=*/1, /*histograms=*/false});
  server.SetSink(&sink);

  for (uint32_t seq = 1; seq <= 2; ++seq) {
    auto pkt = sim::NewPacket(1, 2, 9000, 5008);
    pkt->msg.op = proto::Op::kReadReq;
    pkt->msg.key = "k";
    pkt->msg.seq = seq;
    pkt->flow = sink.OpenFlow(1, seq, 0, 0);
    net.Send(&client, att.port_a, std::move(pkt));
  }
  simulator.RunToCompletion();
  ASSERT_EQ(server.stats().dropped, 1u);

  StreamCapture sc;
  sink.Drain(&sc);
  const std::vector<HopRecord> dropped = FlowRecords(sc, 2);
  ASSERT_EQ(dropped.size(), 1u);
  EXPECT_EQ(dropped[0].kind, HopKind::kDrop);
  EXPECT_EQ(dropped[0].drop,
            1 + static_cast<int>(sim::DropReason::kQueueOverflow));
  EXPECT_EQ(dropped[0].value, 1);
  EXPECT_EQ(sc.sites.at(dropped[0].site), "server-3.rx");
  EXPECT_EQ(FlowRecords(sc, 1).size(), 3u) << "admitted: rx, queue, process";
}

// ---- bounds ---------------------------------------------------------------------

TEST(HopStream, PerFlowHopCapHolds) {
  Sink sink({/*sample_every=*/1, /*histograms=*/false});
  const uint32_t site = sink.Site("tor.recirc");
  const uint32_t flow = sink.OpenFlow(1, 0, 0, 100);
  ASSERT_NE(flow, 0u);
  // A pathologically orbiting packet must not grow its flow unbounded;
  // flow-less records are not capped.
  for (int i = 0; i < 1'000; ++i) {
    sink.Write({.at = 100 + i, .flow = flow, .site = site,
                .kind = HopKind::kRecirc});
  }
  sink.Write({.at = 5'000, .site = site, .kind = HopKind::kFault});
  sink.CloseFlow(flow, 2'000, "read_cached");

  StreamCapture sc;
  sink.Drain(&sc);
  ASSERT_EQ(sc.flows.size(), 1u);
  EXPECT_EQ(sc.flows[0].hops, Sink::kMaxHopsPerFlow);
  EXPECT_EQ(sc.flows[0].truncated_hops, 1'000u - Sink::kMaxHopsPerFlow);
  EXPECT_EQ(sc.records.size(), Sink::kMaxHopsPerFlow + 1);
  EXPECT_EQ(sc.flows[0].finished_at, 2'000);
  EXPECT_STREQ(sc.flows[0].outcome, "read_cached");
}

// ---- drop counters --------------------------------------------------------------

uint64_t Counter(const Snapshot& snap, const std::string& name) {
  for (const auto& [n, v] : snap.counters)
    if (n == name) return v;
  ADD_FAILURE() << "no counter " << name;
  return 0;
}

uint64_t SumLinkCounters(const Snapshot& snap, const std::string& suffix) {
  uint64_t sum = 0;
  for (const auto& [n, v] : snap.counters)
    if (n.rfind("net.link.", 0) == 0 && n.size() > suffix.size() &&
        n.compare(n.size() - suffix.size(), suffix.size(), suffix) == 0)
      sum += v;
  return sum;
}

TEST(HopStream, NetDropCountersEqualChannelStatsSums) {
  testbed::TestbedConfig cfg;
  cfg.scheme = testbed::Scheme::kOrbitCache;
  cfg.topo.fabric.num_racks = 2;
  cfg.topo.num_clients = 2;
  cfg.topo.num_servers = 8;
  cfg.topo.server_rate_rps = 20'000;
  cfg.topo.client_rate_rps = 300'000;
  cfg.workload.num_keys = 20'000;
  cfg.cache.orbit_cache_size = 16;
  cfg.cache.orbit_capacity = 64;
  cfg.warmup = 5 * kMillisecond;
  cfg.duration = 20 * kMillisecond;
  cfg.fault.fabric_burst_loss.p_enter_bad = 0.01;
  cfg.fault.fabric_burst_loss.loss_bad = 0.5;
  cfg.fault.server_burst_loss.p_enter_bad = 0.01;
  cfg.fault.server_burst_loss.loss_bad = 0.5;
  RunCapture cap;
  cfg.telemetry.capture = &cap;
  cfg.telemetry.trace_sample = 0;
  testbed::RunTestbed(cfg);

  ASSERT_FALSE(cap.snapshots.empty());
  const Snapshot& snap = cap.snapshots.back();
  const uint64_t loss = Counter(snap, "net.drop.loss");
  EXPECT_GT(loss, 0u) << "the run must actually lose packets";
  EXPECT_EQ(loss, SumLinkCounters(snap, ".drop.injected_loss"));
  EXPECT_EQ(Counter(snap, "net.drop.queue_overflow"),
            SumLinkCounters(snap, ".drop.queue_overflow"));
  EXPECT_EQ(Counter(snap, "net.drop.link_down"),
            SumLinkCounters(snap, ".drop.link_down"));
}

}  // namespace
}  // namespace orbit::telemetry

// Telemetry unit coverage: structural sampling and site interning in the
// hop-record sink, the per-request hop-time roll-up and its table, the
// counter registry, the golden Chrome trace-event JSON form (the external
// contract Perfetto consumes), and link drops reaching the stream with
// their reason.
#include <gtest/gtest.h>

#include "sim/network.h"
#include "sim/node.h"
#include "sim/simulator.h"
#include "telemetry/counters.h"
#include "telemetry/export.h"
#include "telemetry/netstats.h"
#include "telemetry/sink.h"

namespace orbit::telemetry {
namespace {

TEST(Sink, StructuralSampling) {
  Sink sink({/*sample_every=*/4, /*histograms=*/false});
  EXPECT_NE(sink.OpenFlow(1, 0, 0, 0), 0u);
  EXPECT_EQ(sink.OpenFlow(1, 1, 0, 0), 0u);
  EXPECT_EQ(sink.OpenFlow(1, 3, 0, 0), 0u);
  EXPECT_NE(sink.OpenFlow(1, 4, 0, 0), 0u);
  EXPECT_EQ(sink.OpenFlow(1, 8, 0, 0), 3u) << "handles are dense";

  Sink off({/*sample_every=*/0, /*histograms=*/false});
  EXPECT_EQ(off.OpenFlow(1, 0, 0, 0), 0u);
  EXPECT_EQ(off.OpenFlow(1, 64, 0, 0), 0u);
}

TEST(Sink, FlowIdEncodesClientAndSeq) {
  const uint64_t id = MakeFlowId(0x0a000001, 42);
  EXPECT_EQ(id >> 32, 0x0a000001u);
  EXPECT_EQ(id & 0xffffffffu, 42u);
  EXPECT_NE(MakeFlowId(1, 7), MakeFlowId(2, 7));
  EXPECT_NE(MakeFlowId(1, 7), MakeFlowId(1, 8));

  Sink sink({/*sample_every=*/1, /*histograms=*/false});
  const uint32_t h = sink.OpenFlow(0x0a000001, 42, 1, 500);
  StreamCapture sc;
  sink.Drain(&sc);
  ASSERT_EQ(sc.flows.size(), 1u);
  EXPECT_EQ(h, 1u);
  EXPECT_EQ(sc.flows[0].id, id);
  EXPECT_EQ(sc.flows[0].started_at, 500);
  EXPECT_EQ(sc.flows[0].finished_at, 0) << "open until closed";
}

TEST(Sink, SitesAreDenseIndicesAndShared) {
  Sink sink({/*sample_every=*/1, /*histograms=*/true});
  EXPECT_EQ(sink.Site("tor.pipeline"), 0u);
  EXPECT_EQ(sink.Site("client-1.tx"), 1u);
  EXPECT_EQ(sink.Site("tor.pipeline"), 0u) << "same name, same site";
  EXPECT_EQ(sink.Hist("value.bytes", "bytes"),
            sink.Hist("value.bytes", "bytes"));
  StreamCapture sc;
  sink.Drain(&sc);
  ASSERT_EQ(sc.sites.size(), 2u);
  EXPECT_EQ(sc.sites[1], "client-1.tx");
}

TEST(Sink, HistogramsRecordOnlyWhenEnabled) {
  Sink off({/*sample_every=*/0, /*histograms=*/false});
  off.Record(off.Hist("hop.rtt.ns", "ns"), 1'234);
  StreamCapture cap_off;
  off.Drain(&cap_off);
  EXPECT_TRUE(cap_off.hists.empty());

  Sink on({/*sample_every=*/0, /*histograms=*/true});
  const uint32_t h_on = on.Hist("hop.rtt.ns", "ns");
  // Values < 64 land in the exact linear row, so the finalized min/max
  // come back unchanged (above that they are bucket mid-points).
  for (int64_t v : {10, 20, 40, 50}) on.Record(h_on, v);
  StreamCapture cap_on;
  on.Drain(&cap_on);
  ASSERT_EQ(cap_on.hists.size(), 1u);
  EXPECT_EQ(cap_on.hists[0].name, "hop.rtt.ns");
  EXPECT_EQ(cap_on.hists[0].unit, "ns");
  EXPECT_EQ(cap_on.hists[0].count, 4u);
  EXPECT_EQ(cap_on.hists[0].min, 10);
  EXPECT_EQ(cap_on.hists[0].max, 50);
}

TEST(RequestSummary, SumsRepeatedHopsAndSkipsInstants) {
  RequestSummary s;
  s.AddHop("recirc", 200);
  s.AddHop("pipeline", 0);  // instants carry no time
  s.AddHop("link", 50);
  s.AddHop("recirc", 300);
  // Closing records span the whole request: that is `total`, not a hop.
  s.AddHop("client_rx", 1000);
  s.AddHop("timeout", 1000);
  ASSERT_EQ(s.hops.size(), 2u);
  EXPECT_EQ(s.hops[0].first, "recirc");
  EXPECT_EQ(s.hops[0].second, 500);
  EXPECT_EQ(s.hops[1].first, "link");
  EXPECT_EQ(s.hops[1].second, 50);
}

TEST(FormatHopBreakdown, RendersPerHopRows) {
  RequestSummary a;
  a.total = 2000;
  a.AddHop("srv_process", 500);
  RequestSummary b;
  b.total = 1000;
  b.AddHop("srv_process", 1500);
  b.AddHop("recirc", 250);
  RequestSummary unfinished;  // no end-to-end time, but its hops count
  unfinished.AddHop("pipeline", 100);
  // End-to-end row first, then hop kinds in first-seen order; min/mean/max
  // over the requests that spent time there, in microseconds.
  EXPECT_EQ(FormatHopBreakdown({a, b, unfinished}),
      "hop                        requests       min_us      mean_us       max_us\n"
      "request (end-to-end)              2        1.000        1.500        2.000\n"
      "srv_process                       2        0.500        1.000        1.500\n"
      "recirc                            1        0.250        0.250        0.250\n"
      "pipeline                          1        0.100        0.100        0.100\n");
  EXPECT_EQ(FormatHopBreakdown({}),
      "hop                        requests       min_us      mean_us       max_us\n");
}

TEST(Registry, SamplesInRegistrationOrder) {
  Registry reg;
  uint64_t a = 5;
  reg.AddCounter("b.second", [] { return uint64_t{2}; });
  reg.AddCounter("a.first", [&a] { return a; });
  reg.AddGauge("depth", [] { return uint64_t{7}; });
  uint64_t drops = 3;
  reg.AddCounter("drops", [&drops] { return drops; });

  Snapshot snap = reg.Sample(123);
  EXPECT_EQ(snap.at, 123);
  ASSERT_EQ(snap.counters.size(), 3u);
  // Registration order, not name order: determinism contract.
  EXPECT_EQ(snap.counters[0].first, "b.second");
  EXPECT_EQ(snap.counters[1].first, "a.first");
  EXPECT_EQ(snap.counters[1].second, 5u);
  EXPECT_EQ(snap.counters[2].first, "drops");
  EXPECT_EQ(snap.counters[2].second, 3u);
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_EQ(snap.gauges[0].second, 7u);

  // Sources are live: later samples see updated values.
  a = 9;
  drops += 1;
  snap = reg.Sample(456);
  EXPECT_EQ(snap.counters[1].second, 9u);
  EXPECT_EQ(snap.counters[2].second, 4u);
}

// The exact exported bytes are the external contract (Perfetto reads
// them); lock the golden form of every event shape in one small capture:
// an opening span, an instant, a closing span, and a flow-less drop.
TEST(ChromeTraceJson, GoldenDocument) {
  StreamCapture cap;
  cap.sites = {"tor.pipeline", "client-1.rx"};
  FlowRec flow;
  flow.id = 42;
  cap.flows = {flow};
  cap.records.push_back({.at = 1500, .dur = 2250, .value = 250,
                         .detail = "forward_port", .flow = 1, .site = 0,
                         .kind = HopKind::kPipeline});
  cap.records.push_back({.at = 4000, .detail = "read", .flow = 1, .site = 1,
                         .kind = HopKind::kClientTx});
  cap.records.push_back({.at = 9000, .dur = 5000, .detail = "read_cached",
                         .flow = 1, .site = 1, .recirc = 3,
                         .kind = HopKind::kClientRx});
  cap.records.push_back({.at = 9500, .site = 0, .kind = HopKind::kDrop,
                         .drop = 1});

  const std::string json = ChromeTraceJson({{"exp point=0", &cap}});
  const std::string expected =
      "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n"
      "{\"ph\":\"M\",\"pid\":0,\"name\":\"process_name\",\"args\":{\"name\":"
      "\"exp point=0\"}},\n"
      "{\"ph\":\"M\",\"pid\":0,\"tid\":0,\"name\":\"thread_name\",\"args\":{"
      "\"name\":\"tor.pipeline\"}},\n"
      "{\"ph\":\"M\",\"pid\":0,\"tid\":1,\"name\":\"thread_name\",\"args\":{"
      "\"name\":\"client-1.rx\"}},\n"
      "{\"ph\":\"X\",\"pid\":0,\"tid\":0,\"ts\":1.500,\"dur\":2.250,\"name\":"
      "\"pipeline:forward_port\",\"cat\":\"telemetry\",\"args\":{\"flow\":42,"
      "\"value\":250}},\n"
      "{\"ph\":\"i\",\"pid\":0,\"tid\":1,\"ts\":4.000,\"s\":\"t\",\"name\":"
      "\"client_tx:read\",\"cat\":\"telemetry\",\"args\":{\"flow\":42}},\n"
      "{\"ph\":\"X\",\"pid\":0,\"tid\":1,\"ts\":4.000,\"dur\":5.000,\"name\":"
      "\"client_rx:read_cached\",\"cat\":\"telemetry\",\"args\":{\"flow\":42,"
      "\"recirc\":3}},\n"
      "{\"ph\":\"i\",\"pid\":0,\"tid\":0,\"ts\":9.500,\"s\":\"t\",\"name\":"
      "\"drop\",\"cat\":\"telemetry\",\"args\":{\"flow\":0,\"drop\":"
      "\"queue_overflow\"}}\n"
      "]}\n";
  EXPECT_EQ(json, expected);
}

TEST(ChromeTraceJson, EmptyCaptureListStillValidDocument) {
  const std::string json = ChromeTraceJson({});
  EXPECT_EQ(json, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n\n]}\n");
}

// ---- link drops reach the stream -------------------------------------------

class SinkNode : public sim::Node {
 public:
  void OnPacket(sim::PacketPtr, int) override {}
  std::string name() const override { return "sink"; }
};

TEST(LinkDrop, QueueOverflowWritesDropRecordWithReason) {
  sim::Simulator sim;
  sim::Network net(&sim);
  SinkNode a, b;
  sim::LinkConfig link;
  link.rate_gbps = 0.001;         // slow: packets pile up
  link.propagation = 100;
  link.queue_limit_bytes = 200;   // tiny drop-tail queue
  const auto att = net.Connect(&a, &b, link);
  Sink sink({/*sample_every=*/1, /*histograms=*/false});
  AttachLinkSink(sink, net);

  for (uint32_t i = 0; i < 20; ++i) {
    proto::Message msg;
    msg.op = proto::Op::kReadReq;
    auto pkt = sim::MakePacket(1, 2, 5008, 5008, std::move(msg));
    pkt->flow = sink.OpenFlow(1, i, 0, 0);
    net.Send(&a, att.port_a, std::move(pkt));
  }
  sim.RunToCompletion();
  StreamCapture sc;
  sink.Drain(&sc);
  uint64_t drops = 0, commits = 0;
  for (const HopRecord& rec : sc.records) {
    if (rec.kind == HopKind::kLink) ++commits;
    if (rec.kind != HopKind::kDrop) continue;
    ++drops;
    EXPECT_EQ(rec.drop, 1 + static_cast<int>(sim::DropReason::kQueueOverflow));
  }
  EXPECT_GT(drops, 0u);
  EXPECT_EQ(drops, att.link->stats(0).drops);
  EXPECT_EQ(commits, att.link->stats(0).packets);
  EXPECT_STREQ(sim::DropReasonName(sim::DropReason::kQueueOverflow),
               "queue_overflow");
  EXPECT_STREQ(sim::DropReasonName(sim::DropReason::kInjectedLoss),
               "injected_loss");
  EXPECT_STREQ(sim::DropReasonName(sim::DropReason::kSwitchReset),
               "switch_reset");
}

}  // namespace
}  // namespace orbit::telemetry

#include "probes.h"

#include <algorithm>
#include <chrono>
#include <memory>

#include "apps/client.h"
#include "apps/server.h"
#include "common/check.h"
#include "kv/kv_store.h"
#include "netcache/program.h"
#include "nocache/program.h"
#include "orbitcache/program.h"
#include "orbitcache/request_table.h"
#include "rmt/switch.h"
#include "sim/event_queue.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "stats/histogram.h"
#include "testbed/workload_source.h"
#include "workload/count_min.h"
#include "workload/keyspace.h"
#include "workload/top_k.h"
#include "workload/zipf.h"

namespace perfbench {

using namespace orbit;
using Request = app::WorkloadSource::Request;

namespace {

constexpr L4Port kOrbitPort = 5008;
constexpr Addr kHostAddr = 1;
constexpr Addr kServerAddr = 100;
constexpr Addr kControllerAddr = 900;

class Stopwatch {
 public:
  double ns_per(uint64_t ops) const {
    const double ns = std::chrono::duration<double, std::nano>(
                          std::chrono::steady_clock::now() - start_)
                          .count();
    return ns / static_cast<double>(std::max<uint64_t>(ops, 1));
  }

 private:
  std::chrono::steady_clock::time_point start_ =
      std::chrono::steady_clock::now();
};

// `n` requests drawn from the workload's own request source.
std::vector<Request> SampleRequests(const Workload& w, size_t n) {
  testbed::ZipfWorkloadSource source(
      w.config, testbed::MakeValueSizeFn(w.config), nullptr);
  Rng rng(w.config.seed ^ 0x70726f6265ull);
  std::vector<Request> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) out.push_back(source.Next(rng));
  return out;
}

proto::Message RequestMessage(const Request& r) {
  proto::Message msg;
  msg.op = r.is_write ? proto::Op::kWriteReq : proto::Op::kReadReq;
  msg.hkey = r.hkey;
  msg.key = r.key;
  if (r.is_write) msg.value = kv::Value::Synthetic(r.value_size, 1);
  return msg;
}

// Counts and drops whatever reaches it.
class SinkNode : public sim::Node {
 public:
  void OnPacket(sim::PacketPtr pkt, int) override {
    ++received;
    checksum += pkt->msg.seq + pkt->msg.value.size();
  }
  std::string name() const override { return "probe-sink"; }
  uint64_t received = 0;
  uint64_t checksum = 0;
};

// Turns every request into its reply, as a server that answers instantly.
class EchoNode : public sim::Node {
 public:
  EchoNode(sim::Network* net, std::function<uint32_t(const Key&)> size_fn)
      : net_(net), size_fn_(std::move(size_fn)) {}
  void OnPacket(sim::PacketPtr pkt, int port) override {
    const bool write = pkt->msg.op == proto::Op::kWriteReq;
    pkt->msg.op = write ? proto::Op::kWriteRep : proto::Op::kReadRep;
    if (!write)
      pkt->msg.value = kv::Value::Synthetic(size_fn_(pkt->msg.key), 0);
    std::swap(pkt->src, pkt->dst);
    std::swap(pkt->sport, pkt->dport);
    net_->Send(this, port, std::move(pkt));
  }
  std::string name() const override { return "probe-echo"; }

 private:
  sim::Network* net_;
  std::function<uint32_t(const Key&)> size_fn_;
};

// The probe pops events itself, so no timer ever fires.
class NullTimer : public sim::TimerHandler {
 public:
  void OnTimer(uint64_t) override {}
};

// One pop and one push per operation (the work one simulated event costs
// the queue), with the queue holding the workload's population: a chain of
// short-horizon events (packets in flight, service completions) that each
// reschedule within a few microseconds, above a floor of long-horizon
// request deadlines, each replaced one request timeout later when it fires.
ProbeResult QueueProbe(const ProbeInputs& in) {
  constexpr uint64_t kOps = 1'000'000;
  constexpr uint64_t kLong = 1;
  constexpr uint64_t kShortHorizonNs = 2'000;
  sim::EventQueue queue;
  NullTimer handler;
  Rng rng(in.workload->config.seed);
  const SimTime timeout =
      std::max<SimTime>(in.workload->config.client.request_timeout, 1);
  for (uint64_t i = 0; i < in.queue.long_horizon; ++i)
    queue.PushTimer(static_cast<SimTime>(
                        rng.UniformU64(static_cast<uint64_t>(timeout))),
                    &handler, kLong);
  for (uint64_t i = 0; i < std::max<uint64_t>(in.queue.short_horizon, 1); ++i)
    queue.PushTimer(static_cast<SimTime>(rng.UniformU64(kShortHorizonNs)),
                    &handler, 0);
  ProbeResult r;
  Stopwatch sw;
  for (uint64_t i = 0; i < kOps; ++i) {
    sim::Event e = queue.Pop();
    r.checksum += static_cast<uint64_t>(e.time);
    const SimTime short_delay =
        1 + static_cast<SimTime>(rng.UniformU64(kShortHorizonNs));
    const SimTime next = e.time + (e.arg == kLong ? timeout : short_delay);
    queue.PushTimer(next, e.timer, e.arg);
  }
  r.ns_per_op = sw.ns_per(kOps);
  r.ops = kOps;
  return r;
}

// Network::Send of the workload's request packets over one link, delivered
// and consumed at the far end.
ProbeResult LinkProbe(const ProbeInputs& in) {
  constexpr uint64_t kOps = 400'000;
  constexpr uint64_t kWave = 512;
  const std::vector<Request> reqs = SampleRequests(*in.workload, kWave);
  sim::Simulator simulator;
  sim::Network net(&simulator);
  SinkNode src, dst;
  net.Connect(&src, &dst, sim::LinkConfig{});
  Stopwatch sw;
  for (uint64_t sent = 0; sent < kOps;) {
    for (uint64_t i = 0; i < kWave; ++i, ++sent) {
      proto::Message msg = RequestMessage(reqs[i]);
      msg.seq = static_cast<uint32_t>(sent);
      net.Send(&src, 0, sim::MakePacket(kHostAddr, kServerAddr, 9000,
                                        kOrbitPort, std::move(msg)));
    }
    simulator.RunToCompletion();
  }
  ProbeResult r;
  r.ns_per_op = sw.ns_per(dst.received);
  r.ops = dst.received;
  r.checksum = dst.checksum;
  return r;
}

// A SwitchDevice running the plain forwarding program: ingress pipeline,
// route lookup, egress onto the next link, delivery.
ProbeResult ForwardProbe(const ProbeInputs& in) {
  constexpr uint64_t kOps = 300'000;
  constexpr uint64_t kWave = 512;
  const std::vector<Request> reqs = SampleRequests(*in.workload, kWave);
  sim::Simulator simulator;
  sim::Network net(&simulator);
  rmt::SwitchDevice device(&simulator, &net, "probe-switch",
                           in.workload->config.topo.asic);
  nocache::ForwardProgram program;
  device.SetProgram(&program);
  SinkNode host, server;
  const auto up = net.Connect(&host, &device, sim::LinkConfig{});
  const auto down = net.Connect(&server, &device, sim::LinkConfig{});
  device.AddRoute(kServerAddr, down.port_b);
  Stopwatch sw;
  for (uint64_t sent = 0; sent < kOps;) {
    for (uint64_t i = 0; i < kWave; ++i, ++sent) {
      proto::Message msg = RequestMessage(reqs[i]);
      msg.seq = static_cast<uint32_t>(sent);
      device.OnPacket(sim::MakePacket(kHostAddr, kServerAddr, 9000, kOrbitPort,
                                      std::move(msg)),
                      up.port_b);
    }
    simulator.RunToCompletion();
  }
  ProbeResult r;
  r.ns_per_op = sw.ns_per(server.received);
  r.ops = server.received;
  r.checksum = server.checksum + program.forwarded();
  return r;
}

// An OrbitProgram caching the workload's hottest cache_size keys, each
// validated by a fetch reply as the controller's preload does.
struct OrbitRig {
  explicit OrbitRig(const Workload& w)
      : net(&simulator),
        device(&simulator, &net, "probe-orbit", w.config.topo.asic),
        program(&device, Config(w)) {
    device.SetProgram(&program);
    program.RegisterCloneTarget(kControllerAddr, 0);
    const wl::KeySpace keys(w.config.workload.num_keys,
                            w.config.workload.key_size, w.config.seed);
    const auto size_fn = testbed::MakeValueSizeFn(w.config);
    const size_t n = std::min(w.config.cache.orbit_cache_size,
                              w.config.cache.orbit_capacity);
    for (uint32_t idx = 0; idx < n; ++idx) {
      const Key key = keys.KeyAtRank(idx);
      const Hash128 hkey = HashKey128(key);
      ORBIT_CHECK(program.InsertEntry(hkey, idx));
      proto::Message msg;
      msg.op = proto::Op::kFetchRep;
      msg.hkey = hkey;
      msg.key = key;
      msg.value = kv::Value::Synthetic(size_fn(key), 1);
      msg.epoch = program.EpochOf(idx);
      auto pkt = sim::MakePacket(kServerAddr, kControllerAddr, kOrbitPort,
                                 kOrbitPort, msg);
      program.Ingress(*pkt, device);
      ORBIT_CHECK(program.IsValid(idx));
      msg.op = proto::Op::kReadRep;
      cache_packets.push_back(sim::MakePacket(kServerAddr, kControllerAddr,
                                              kOrbitPort, kOrbitPort, msg));
      cache_packets.back()->from_recirc = true;
    }
  }
  static oc::OrbitConfig Config(const Workload& w) {
    oc::OrbitConfig c;
    c.capacity = w.config.cache.orbit_capacity;
    c.queue_size = w.config.cache.orbit_queue_size;
    return c;
  }

  sim::Simulator simulator;
  sim::Network net;
  rmt::SwitchDevice device;
  oc::OrbitProgram program;
  std::vector<sim::PacketPtr> cache_packets;
};

// OrbitProgram::Ingress on a circulating cache packet with no request
// waiting: lookup, epoch and validity checks, request-table poll, recirc.
ProbeResult CachePacketPassProbe(const ProbeInputs& in) {
  constexpr uint64_t kOps = 2'000'000;
  OrbitRig rig(*in.workload);
  ProbeResult r;
  const size_t n = rig.cache_packets.size();
  Stopwatch sw;
  for (uint64_t i = 0; i < kOps; ++i) {
    const rmt::IngressResult res =
        rig.program.Ingress(*rig.cache_packets[i % n], rig.device);
    r.checksum += res.action == rmt::IngressResult::Action::kRecirculate;
  }
  r.ns_per_op = sw.ns_per(kOps);
  r.ops = kOps;
  return r;
}

// One enqueue and one dequeue per operation over the cached entries, each
// queue kept half full.
ProbeResult RequestTableProbe(const ProbeInputs& in) {
  constexpr uint64_t kOps = 2'000'000;
  const testbed::TestbedConfig& cfg = in.workload->config;
  rmt::Resources resources(cfg.topo.asic);
  oc::RequestTable table(&resources, cfg.cache.orbit_capacity,
                         cfg.cache.orbit_queue_size, /*first_stage=*/2);
  const uint32_t entries = static_cast<uint32_t>(
      std::min(cfg.cache.orbit_cache_size, cfg.cache.orbit_capacity));
  oc::RequestMeta meta;
  meta.client_addr = kHostAddr;
  meta.l4_port = 9000;
  for (uint32_t idx = 0; idx < entries; ++idx)
    for (size_t k = 0; k < cfg.cache.orbit_queue_size / 2; ++k)
      table.TryEnqueue(idx, meta);
  ProbeResult r;
  Stopwatch sw;
  for (uint64_t i = 0; i < kOps; ++i) {
    const uint32_t idx = static_cast<uint32_t>(i % entries);
    meta.seq = static_cast<uint32_t>(i);
    r.checksum += table.TryEnqueue(idx, meta);
    if (auto m = table.TryDequeue(idx)) r.checksum += m->seq;
  }
  r.ns_per_op = sw.ns_per(kOps);
  r.ops = kOps;
  return r;
}

// NetProgram::Ingress on the workload's read requests with the hottest
// netcache_size keys installed: lookup, count-min update on a miss, route.
ProbeResult NetCacheIngressProbe(const ProbeInputs& in) {
  constexpr uint64_t kOps = 1'000'000;
  constexpr size_t kDistinct = 8192;
  const testbed::TestbedConfig& cfg = in.workload->config;
  sim::Simulator simulator;
  sim::Network net(&simulator);
  rmt::SwitchDevice device(&simulator, &net, "probe-netcache", cfg.topo.asic);
  nc::NetConfig nc_cfg;
  nc_cfg.capacity = cfg.cache.netcache_size;
  nc_cfg.max_key_bytes = cfg.workload.key_size;
  nc::NetProgram program(&device, nc_cfg);
  const wl::KeySpace keys(cfg.workload.num_keys, cfg.workload.key_size,
                          cfg.seed);
  for (uint32_t idx = 0; idx < cfg.cache.netcache_size; ++idx)
    program.InsertEntry(keys.KeyAtRank(idx), idx);
  std::vector<sim::PacketPtr> pkts;
  for (const Request& req : SampleRequests(*in.workload, kDistinct)) {
    Request read = req;
    read.is_write = false;
    pkts.push_back(sim::MakePacket(kHostAddr, kServerAddr, 9000, kOrbitPort,
                                   RequestMessage(read)));
  }
  ProbeResult r;
  Stopwatch sw;
  for (uint64_t i = 0; i < kOps; ++i) {
    const rmt::IngressResult res =
        program.Ingress(*pkts[i % kDistinct], device);
    r.checksum += static_cast<uint64_t>(res.action) + 1;
  }
  r.ns_per_op = sw.ns_per(kOps);
  r.ops = kOps;
  return r;
}

// A ClientNode driving the workload's requests at one client's share of
// the offered load against an echo node: request generation, send, the
// pending-request map, deadline timers, reply matching, latency recording.
ProbeResult ClientProbe(const ProbeInputs& in) {
  const testbed::TestbedConfig& cfg = in.workload->config;
  sim::Simulator simulator;
  sim::Network net(&simulator);
  const auto size_fn = testbed::MakeValueSizeFn(cfg);
  EchoNode echo(&net, size_fn);
  app::ClientConfig ccfg;
  ccfg.addr = kHostAddr;
  ccfg.rate_rps = 1'000'000;
  ccfg.request_timeout = cfg.client.request_timeout;
  ccfg.seed = cfg.seed;
  auto source =
      std::make_shared<testbed::ZipfWorkloadSource>(cfg, size_fn, nullptr);
  app::ClientNode client(&simulator, &net, 0, ccfg, source);
  net.Connect(&client, &echo, sim::LinkConfig{});
  client.OpenWindow(0);
  Stopwatch sw;
  client.Start();
  simulator.RunUntil(100 * kMillisecond);
  const uint64_t replies = client.stats().rx_replies;
  ProbeResult r;
  r.ns_per_op = sw.ns_per(replies);
  r.ops = replies;
  r.checksum = replies + client.server_read_latency().count();
  client.Stop();
  return r;
}

// A ServerNode (unthrottled) answering the workload's requests from its KV
// partition: admission, service timer, KV get/put, reply.
ProbeResult ServerProbe(const ProbeInputs& in) {
  constexpr uint64_t kOps = 300'000;
  constexpr uint64_t kWave = 128;  // below the server's Rx queue limit
  const testbed::TestbedConfig& cfg = in.workload->config;
  const std::vector<Request> reqs = SampleRequests(*in.workload, 65'536);
  sim::Simulator simulator;
  sim::Network net(&simulator);
  app::ServerConfig scfg;
  scfg.addr = kServerAddr;
  scfg.orbit_port = kOrbitPort;
  scfg.service_rate_rps = 0;
  app::ServerNode server(&simulator, &net, 0, scfg,
                         testbed::MakeValueSizeFn(cfg));
  SinkNode client;
  net.Connect(&server, &client, sim::LinkConfig{});
  Stopwatch sw;
  for (uint64_t sent = 0; sent < kOps;) {
    for (uint64_t i = 0; i < kWave; ++i, ++sent) {
      proto::Message msg = RequestMessage(reqs[sent % reqs.size()]);
      msg.seq = static_cast<uint32_t>(sent);
      net.Send(&client, 0, sim::MakePacket(kHostAddr, kServerAddr, 9000,
                                           kOrbitPort, std::move(msg)));
    }
    simulator.RunToCompletion();
  }
  ProbeResult r;
  r.ns_per_op = sw.ns_per(client.received);
  r.ops = client.received;
  r.checksum = client.checksum + server.stats().replies;
  return r;
}

// KvStore over the keys the workload touches: Put of each sampled key
// (kv.put_ns), then Get of each (kv.get_ns).
ProbeResult KvProbe(const ProbeInputs& in, bool get) {
  constexpr size_t kOps = 200'000;
  const std::vector<Request> reqs = SampleRequests(*in.workload, kOps);
  kv::KvStore store;
  ProbeResult r;
  Stopwatch put_sw;
  for (const Request& req : reqs)
    r.checksum += store.Put(req.key, req.value_size);
  const double put_ns = put_sw.ns_per(kOps);
  Stopwatch get_sw;
  for (const Request& req : reqs) {
    if (auto v = store.Get(req.key)) r.checksum += v->size();
  }
  r.ns_per_op = get ? get_sw.ns_per(kOps) : put_ns;
  r.ops = kOps;
  return r;
}

// One Zipf draw plus KeyAtRank: what generating a request key costs.
ProbeResult WorkloadNextProbe(const ProbeInputs& in) {
  constexpr uint64_t kOps = 300'000;
  const testbed::TestbedConfig& cfg = in.workload->config;
  const wl::ZipfGenerator zipf(cfg.workload.num_keys, cfg.workload.zipf_theta);
  const wl::KeySpace keys(cfg.workload.num_keys, cfg.workload.key_size,
                          cfg.seed);
  Rng rng(cfg.seed);
  ProbeResult r;
  Stopwatch sw;
  for (uint64_t i = 0; i < kOps; ++i) {
    const uint64_t rank = zipf.Sample(rng);
    const Key key = keys.KeyAtRank(rank);
    r.checksum += rank + static_cast<unsigned char>(key.back());
  }
  r.ns_per_op = sw.ns_per(kOps);
  r.ops = kOps;
  return r;
}

// The controller-side popularity update: CountMin plus TopKTracker, each
// fed one request key (sizes as the NetCache switch and servers use them).
ProbeResult CountMinProbe(const ProbeInputs& in) {
  constexpr uint64_t kOps = 300'000;
  const std::vector<Request> reqs = SampleRequests(*in.workload, 65'536);
  wl::CountMin sketch(4, 8192);
  wl::TopKTracker top_k(16);
  ProbeResult r;
  Stopwatch sw;
  for (uint64_t i = 0; i < kOps; ++i) {
    const Key& key = reqs[i % reqs.size()].key;
    sketch.Update(key);
    top_k.Update(key);
  }
  r.ns_per_op = sw.ns_per(kOps);
  r.ops = kOps;
  r.checksum = sketch.total_updates() + top_k.Snapshot().size() +
               sketch.Estimate(reqs[0].key);
  return r;
}

// Histogram::Record of latency-like values (exponential, mean 20 us).
ProbeResult HistogramProbe(const ProbeInputs& in) {
  constexpr uint64_t kOps = 4'000'000;
  constexpr size_t kValues = 65'536;
  Rng rng(in.workload->config.seed);
  std::vector<int64_t> values(kValues);
  for (int64_t& v : values) v = static_cast<int64_t>(rng.Exponential(20'000));
  stats::Histogram hist;
  Stopwatch sw;
  for (uint64_t i = 0; i < kOps; ++i) hist.Record(values[i % kValues]);
  ProbeResult r;
  r.ns_per_op = sw.ns_per(kOps);
  r.ops = kOps;
  r.checksum = hist.count() + static_cast<uint64_t>(hist.Percentile(0.5));
  return r;
}

}  // namespace

const std::vector<Probe>& AllProbes() {
  static const std::vector<Probe> probes = {
      {"sim.queue_ns_per_op", QueueProbe},
      {"sim.link_ns_per_pkt", LinkProbe},
      {"rmt.forward_ns_per_pkt", ForwardProbe},
      {"orbitcache.cp_pass_ns", CachePacketPassProbe},
      {"orbitcache.req_table_ns_per_op", RequestTableProbe},
      {"netcache.ingress_ns_per_pkt", NetCacheIngressProbe},
      {"apps.client_reply_ns", ClientProbe},
      {"apps.server_req_ns", ServerProbe},
      {"kv.get_ns", [](const ProbeInputs& in) { return KvProbe(in, true); }},
      {"kv.put_ns", [](const ProbeInputs& in) { return KvProbe(in, false); }},
      {"workload.next_ns", WorkloadNextProbe},
      {"workload.countmin_ns", CountMinProbe},
      {"stats.hist_record_ns", HistogramProbe},
  };
  return probes;
}

ProbeResult RunProbe(const Probe& probe, const ProbeInputs& inputs) {
  std::vector<ProbeResult> runs;
  for (int i = 0; i < kProbeRepeats; ++i)
    runs.push_back(probe.run(inputs));
  std::sort(runs.begin(), runs.end(),
            [](const ProbeResult& a, const ProbeResult& b) {
              return a.ns_per_op < b.ns_per_op;
            });
  return runs[runs.size() / 2];
}

QueuePopulation EstimateQueuePopulation(const Workload& workload,
                                        double offered_rps,
                                        uint64_t cache_packets_in_flight) {
  const testbed::TestbedConfig& cfg = workload.config;
  const double timeout_s = static_cast<double>(cfg.client.request_timeout) /
                           static_cast<double>(kSecond);
  QueuePopulation pop;
  pop.long_horizon = static_cast<uint64_t>(offered_rps * timeout_s);
  // One event per orbiting cache packet, per client tick and per server
  // completion, plus requests on the wire (about 10 us each way).
  pop.short_horizon = cache_packets_in_flight +
                      static_cast<uint64_t>(cfg.topo.num_clients) +
                      static_cast<uint64_t>(cfg.topo.num_servers) +
                      static_cast<uint64_t>(offered_rps * 20e-6);
  return pop;
}

}  // namespace perfbench

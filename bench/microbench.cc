// bench/microbench — simulator hot-path throughput probes.
//
// Four numbers track the discrete-event core over time (docs/PERF.md):
//   * event_queue_mops       raw EventQueue throughput (classic "hold"
//                            model: pop one, push one at a later time)
//   * link_mpps              pooled packets per second through a 2-node
//                            link, allocation-free in steady state
//   * link_int_mpps          the same link with INT attached and the
//                            always-on histograms recording every packet
//                            (the "observability tax"; budget <5% —
//                            the printed link_int_overhead_pct shows it)
//   * quick_testbed_wall_s   wall-clock of one quick-scale OrbitCache
//                            testbed point (the unit FindSaturation
//                            re-runs dozens of times per figure)
//
// Results print as one JSON document (--out writes it to a file; the
// checked-in trajectory lives in BENCH_*.json at the repo root). With
// --check REF.json the run becomes a CI gate: it exits 1 when any metric
// regresses more than --regression (default 25%) against the reference —
// throughput metrics must not drop, *_wall_s metrics must not grow.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/types.h"
#include "harness/flags.h"
#include "harness/json.h"
#include "sim/event_queue.h"
#include "sim/link.h"
#include "sim/network.h"
#include "sim/node.h"
#include "sim/simulator.h"
#include "telemetry/netstats.h"
#include "telemetry/sink.h"
#include "testbed/testbed.h"

namespace orbit {
namespace {

double Seconds(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// --- event_queue_mops ----------------------------------------------------

class NullTimer : public sim::TimerHandler {
 public:
  void OnTimer(uint64_t) override {}
};

// Hold model: keep the queue at a steady population, each iteration pops
// the earliest event and pushes a replacement at a pseudo-random later
// time. Counts both the pop and the push as operations.
double EventQueueMops(uint64_t iterations) {
  sim::EventQueue queue;
  NullTimer handler;
  uint64_t lcg = 0x9e3779b97f4a7c15ull;
  auto next_delay = [&lcg] {
    lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<SimTime>((lcg >> 33) % 1000);
  };
  constexpr size_t kPopulation = 1 << 16;
  for (size_t i = 0; i < kPopulation; ++i)
    queue.PushTimer(next_delay(), &handler, i);

  const auto start = std::chrono::steady_clock::now();
  for (uint64_t i = 0; i < iterations; ++i) {
    sim::Event e = queue.Pop();
    queue.PushTimer(e.time + 1 + next_delay(), e.timer, e.arg);
  }
  const double wall = Seconds(start);
  return 2.0 * static_cast<double>(iterations) / wall / 1e6;
}

// --- link_mpps -----------------------------------------------------------

class SinkNode : public sim::Node {
 public:
  void OnPacket(sim::PacketPtr pkt, int) override {
    ++received;
    pkt.reset();  // back to the pool
  }
  std::string name() const override { return "sink"; }
  uint64_t received = 0;
};

// Streams pooled packets across one link in waves; each wave drains fully
// before the next starts, so the pool recycles the same few hundred
// packets for the whole measurement. With `with_int` the link carries the
// telemetry sink and the always-on histograms record every packet — the
// cost of leaving observability on unsampled.
double LinkMpps(uint64_t packets, bool with_int = false) {
  sim::Simulator simulator;
  sim::Network net(&simulator);
  SinkNode src, dst;
  sim::LinkConfig link;
  link.rate_gbps = 100.0;
  link.propagation = 500;
  net.Connect(&src, &dst, link);
  telemetry::Sink sink({/*sample_every=*/0, /*histograms=*/true});
  if (with_int) telemetry::AttachLinkSink(sink, net);

  constexpr uint64_t kWave = 512;
  const auto start = std::chrono::steady_clock::now();
  for (uint64_t sent = 0; sent < packets;) {
    for (uint64_t i = 0; i < kWave && sent < packets; ++i, ++sent) {
      auto pkt = sim::NewPacket(1, 2, 0, 0);
      pkt->msg.seq = static_cast<uint32_t>(sent);
      net.Send(&src, 0, std::move(pkt));
    }
    simulator.RunToCompletion();
  }
  const double wall = Seconds(start);
  return static_cast<double>(dst.received) / wall / 1e6;
}

// --- quick_testbed_wall_s ------------------------------------------------

// One quick-scale OrbitCache point (same shape as run_all --quick uses:
// 100K keys, 20 ms warmup, 60 ms window).
double QuickTestbedWallSeconds() {
  testbed::TestbedConfig config;
  config.scheme = testbed::Scheme::kOrbitCache;
  config.workload.num_keys = 100'000;
  config.warmup = 20 * kMillisecond;
  config.duration = 60 * kMillisecond;
  const auto start = std::chrono::steady_clock::now();
  const testbed::TestbedResult result = testbed::RunTestbed(config);
  const double wall = Seconds(start);
  std::fprintf(stderr, "  quick testbed: %llu events, %.2f Mrx/s\n",
               static_cast<unsigned long long>(result.events_processed),
               result.rx_rps / 1e6);
  return wall;
}

// --- driver --------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  bool lower_is_better = false;
};

harness::Flags MakeFlags() {
  harness::Flags flags;
  flags.AddUint64("events", 2'000'000, "N",
                  "event-queue hold-model iterations (default 2M)");
  flags.AddUint64("packets", 1'000'000, "N",
                  "packets through the 2-node link (default 1M)");
  flags.AddInt("repeat", 3, "N",
               "best-of-N passes for the micro probes (default 3)");
  flags.AddBool("no-testbed", "skip the quick-testbed probe");
  flags.AddString("out", "", "PATH", "also write the JSON document to PATH");
  flags.AddString("label", "", "TEXT",
                  "free-form label recorded in the JSON (a date, a sha)");
  flags.AddString("check", "", "REF.json",
                  "compare against a reference document; exit 1 on\n"
                  "regression beyond --regression");
  flags.AddDouble("regression", 0.25, "F",
                  "allowed fractional regression for --check (default\n"
                  "0.25 = 25%)");
  flags.AddDouble("suite-wall-s", 0, "SEC",
                  "record an externally measured run_all --quick\n"
                  "wall-clock in the JSON");
  flags.AddDouble("suite-baseline-wall-s", 0, "SEC",
                  "the pre-overhaul suite wall-clock to compare against");
  flags.AddBool("help", "this message").Alias("-h");
  return flags;
}

int CheckAgainstReference(const std::vector<Metric>& metrics,
                          const std::string& path, double allowed) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot read %s\n", path.c_str());
    return 2;
  }
  std::string text;
  char buf[1 << 14];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, n);
  std::fclose(f);
  harness::JsonValue doc;
  std::string error;
  if (!harness::ParseJson(text, &doc, &error)) {
    std::fprintf(stderr, "%s: %s\n", path.c_str(), error.c_str());
    return 2;
  }
  const harness::JsonValue* ref_metrics = doc.Find("metrics");
  if (ref_metrics == nullptr || !ref_metrics->is_object()) {
    std::fprintf(stderr, "%s: no \"metrics\" object\n", path.c_str());
    return 2;
  }

  int regressions = 0;
  for (const Metric& m : metrics) {
    const harness::JsonValue* ref = ref_metrics->Find(m.name);
    if (ref == nullptr || !ref->is_number()) {
      std::printf("%-24s %10.3f  (no reference — skipped)\n", m.name.c_str(),
                  m.value);
      continue;
    }
    const double r = ref->AsDouble();
    const bool bad = m.lower_is_better ? m.value > r * (1 + allowed)
                                       : m.value < r * (1 - allowed);
    const double delta = r > 0 ? (m.value - r) / r * 100 : 0;
    std::printf("%-24s %10.3f  vs ref %10.3f  (%+.1f%%)%s\n", m.name.c_str(),
                m.value, r, delta, bad ? "  REGRESSION" : "");
    if (bad) ++regressions;
  }
  if (regressions > 0) {
    std::fprintf(stderr,
                 "%d metric(s) regressed more than %.0f%% vs %s\n"
                 "(if the change is intentional, refresh the reference)\n",
                 regressions, allowed * 100, path.c_str());
    return 1;
  }
  std::printf("all metrics within %.0f%% of %s\n", allowed * 100,
              path.c_str());
  return 0;
}

int Main(int argc, char** argv) {
  harness::Flags flags = MakeFlags();
  if (!flags.Parse(argc, argv)) {
    std::fprintf(stderr, "%s\nusage:\n%s", flags.error().c_str(),
                 MakeFlags().Usage().c_str());
    return 2;
  }
  if (flags.GetBool("help")) {
    std::printf("usage: %s [flags]\n%s", argv[0], MakeFlags().Usage().c_str());
    return 0;
  }

  const int repeat = flags.GetInt("repeat") < 1 ? 1 : flags.GetInt("repeat");
  std::vector<Metric> metrics;

  std::fprintf(stderr, "event queue: %llu hold iterations x%d...\n",
               static_cast<unsigned long long>(flags.GetUint64("events")),
               repeat);
  double mops = 0;
  for (int i = 0; i < repeat; ++i)
    mops = std::max(mops, EventQueueMops(flags.GetUint64("events")));
  metrics.push_back({"event_queue_mops", mops, false});

  std::fprintf(stderr, "link, then link + INT histograms: %llu pooled "
               "packets x%d each...\n",
               static_cast<unsigned long long>(flags.GetUint64("packets")),
               repeat);
  // Plain and INT-instrumented passes interleave so clock-speed drift
  // over the measurement hits both sides equally; best-of-N per side.
  double mpps = 0, int_mpps = 0;
  for (int i = 0; i < repeat; ++i) {
    mpps = std::max(mpps, LinkMpps(flags.GetUint64("packets")));
    int_mpps = std::max(int_mpps, LinkMpps(flags.GetUint64("packets"), true));
  }
  metrics.push_back({"link_mpps", mpps, false});
  metrics.push_back({"link_int_mpps", int_mpps, false});
  const double int_overhead = (mpps - int_mpps) / mpps * 100.0;
  std::fprintf(stderr, "  always-on histogram overhead: %.1f%%\n",
               int_overhead);
  metrics.push_back({"link_int_overhead_pct", int_overhead, true});

  if (!flags.GetBool("no-testbed")) {
    std::fprintf(stderr, "quick testbed point...\n");
    metrics.push_back({"quick_testbed_wall_s", QuickTestbedWallSeconds(), true});
  }

  harness::JsonValue doc = harness::JsonValue::MakeObject();
  doc.Set("bench", "microbench");
  if (!flags.GetString("label").empty())
    doc.Set("label", flags.GetString("label"));
  harness::JsonValue out_metrics = harness::JsonValue::MakeObject();
  for (const Metric& m : metrics) out_metrics.Set(m.name, m.value);
  doc.Set("metrics", std::move(out_metrics));
  if (flags.GetDouble("suite-wall-s") > 0) {
    harness::JsonValue suite = harness::JsonValue::MakeObject();
    suite.Set("wall_s", flags.GetDouble("suite-wall-s"));
    if (flags.GetDouble("suite-baseline-wall-s") > 0) {
      suite.Set("baseline_wall_s", flags.GetDouble("suite-baseline-wall-s"));
      suite.Set("speedup", flags.GetDouble("suite-baseline-wall-s") /
                               flags.GetDouble("suite-wall-s"));
    }
    doc.Set("quick_suite", std::move(suite));
  }

  const std::string json = doc.Dump();
  std::printf("%s\n", json.c_str());
  if (!flags.GetString("out").empty()) {
    std::FILE* f = std::fopen(flags.GetString("out").c_str(), "wb");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n",
                   flags.GetString("out").c_str());
      return 2;
    }
    std::fprintf(f, "%s\n", json.c_str());
    std::fclose(f);
  }

  if (!flags.GetString("check").empty())
    return CheckAgainstReference(metrics, flags.GetString("check"),
                                 flags.GetDouble("regression"));
  return 0;
}

}  // namespace
}  // namespace orbit

int main(int argc, char** argv) { return orbit::Main(argc, argv); }

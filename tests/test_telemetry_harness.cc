// Telemetry integration: an instrumented testbed run fills the capture
// with hop records and counter snapshots; instrumentation never perturbs
// results; captures are deterministic across repeats and job counts; and
// the harness's record JSONL is byte-identical with telemetry on or off.
#include <gtest/gtest.h>

#include <algorithm>

#include "harness/metrics.h"
#include "harness/runner.h"
#include "harness/telemetry_io.h"
#include "telemetry/counters.h"
#include "telemetry/export.h"
#include "testbed/serialize.h"
#include "testbed/testbed.h"

namespace orbit::harness {
namespace {

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

uint64_t FinalCounter(const telemetry::RunCapture& cap,
                      const std::string& name) {
  if (cap.snapshots.empty()) return 0;
  for (const auto& [n, v] : cap.snapshots.back().counters)
    if (n == name) return v;
  return 0;
}

TEST(TelemetryTestbed, InstrumentedRunFillsCapture) {
  telemetry::RunCapture cap;
  testbed::TestbedConfig cfg = TinyConfig(testbed::Scheme::kOrbitCache);
  cfg.telemetry.capture = &cap;
  cfg.telemetry.trace_sample = 16;
  cfg.telemetry.snapshot_interval = 2 * kMillisecond;
  testbed::RunTestbed(cfg);

  ASSERT_FALSE(cap.empty());
  const telemetry::StreamCapture& sc = cap.stream;
  // Site order is fixed by attach order: every link direction, then the
  // switch's pipeline, recirculation port and request table, then the
  // servers (rx, queue, process each), then the clients (tx, rx each).
  const auto first_not_link = std::find_if(
      sc.sites.begin(), sc.sites.end(),
      [](const std::string& site) { return site.rfind("link.", 0) != 0; });
  const size_t links = static_cast<size_t>(first_not_link - sc.sites.begin());
  ASSERT_GT(links, 0u);
  EXPECT_EQ(links % 2, 0u) << "two directions per link";
  ASSERT_EQ(sc.sites.size(), links + 3 + 4 * 3 + 2 * 2);
  EXPECT_EQ(sc.sites[links], "tor.pipeline");
  EXPECT_EQ(sc.sites[links + 1], "tor.recirc");
  EXPECT_EQ(sc.sites[links + 2], "tor.request_table");
  EXPECT_EQ(sc.sites[links + 3], "server-0.rx");
  EXPECT_EQ(sc.sites[links + 5], "server-0.process");
  EXPECT_EQ(sc.sites[links + 3 + 3 * 3], "server-3.rx");
  const size_t first_client = links + 3 + 4 * 3;
  for (size_t i = first_client; i < sc.sites.size(); ++i)
    EXPECT_EQ(sc.sites[i].rfind("client-", 0), 0u) << sc.sites[i];

  // Sampled requests produced full lifecycles: closed flows with outcomes
  // and at least one switch pipeline pass each.
  ASSERT_GT(sc.flows.size(), 10u);
  std::vector<bool> with_pipeline(sc.flows.size(), false);
  for (const auto& rec : sc.records)
    if (rec.flow != 0 && rec.kind == telemetry::HopKind::kPipeline)
      with_pipeline[rec.flow - 1] = true;
  size_t with_outcome = 0;
  for (const auto& f : sc.flows)
    if (f.finished_at > 0) ++with_outcome;
  EXPECT_GT(with_outcome, sc.flows.size() / 2);
  EXPECT_GT(std::count(with_pipeline.begin(), with_pipeline.end(), true),
            static_cast<std::ptrdiff_t>(sc.flows.size() / 2));

  // Periodic + final snapshots, in sim-time order, with live counters.
  ASSERT_GE(cap.snapshots.size(), 3u);
  for (size_t i = 1; i < cap.snapshots.size(); ++i)
    EXPECT_GE(cap.snapshots[i].at, cap.snapshots[i - 1].at);
  EXPECT_GT(FinalCounter(cap, "switch.rx_packets"), 0u);
  EXPECT_GT(FinalCounter(cap, "orbit.read_requests"), 0u);
  EXPECT_GT(FinalCounter(cap, "server.0.requests"), 0u);
  EXPECT_GT(FinalCounter(cap, "client.0.tx_requests"), 0u);
  EXPECT_GT(FinalCounter(cap, "rmt.s0.cache_lookup.lookups"), 0u);
}

TEST(TelemetryTestbed, InstrumentationIsResultsNeutral) {
  const testbed::TestbedConfig base = TinyConfig(testbed::Scheme::kOrbitCache);
  const testbed::TestbedResult plain = testbed::RunTestbed(base);

  telemetry::RunCapture cap;
  testbed::TestbedConfig instrumented = base;
  instrumented.telemetry.capture = &cap;
  instrumented.telemetry.trace_sample = 4;  // heavy sampling on purpose
  instrumented.telemetry.snapshot_interval = 1 * kMillisecond;
  const testbed::TestbedResult traced = testbed::RunTestbed(instrumented);

  // Identical simulations: every serialized metric matches exactly.
  EXPECT_EQ(testbed::ResultMetrics(plain).Dump(),
            testbed::ResultMetrics(traced).Dump());
  EXPECT_EQ(plain.events_processed, traced.events_processed);
  // Telemetry must not alter a config's identity either.
  EXPECT_EQ(testbed::ConfigFingerprint(base),
            testbed::ConfigFingerprint(instrumented));
  EXPECT_FALSE(cap.empty());
}

TEST(TelemetryTestbed, CaptureIsDeterministic) {
  auto run = [](telemetry::RunCapture* cap) {
    testbed::TestbedConfig cfg = TinyConfig(testbed::Scheme::kNetCache);
    cfg.telemetry.capture = cap;
    cfg.telemetry.trace_sample = 8;
    cfg.telemetry.snapshot_interval = 2 * kMillisecond;
    testbed::RunTestbed(cfg);
  };
  telemetry::RunCapture a, b;
  run(&a);
  run(&b);
  EXPECT_EQ(telemetry::ChromeTraceJson({{"p", &a.stream}}),
            telemetry::ChromeTraceJson({{"p", &b.stream}}));
  ASSERT_EQ(a.snapshots.size(), b.snapshots.size());
  for (size_t i = 0; i < a.snapshots.size(); ++i) {
    EXPECT_EQ(a.snapshots[i].at, b.snapshots[i].at);
    EXPECT_EQ(a.snapshots[i].counters, b.snapshots[i].counters);
    EXPECT_EQ(a.snapshots[i].gauges, b.snapshots[i].gauges);
  }
}

ExperimentSpec TinySpec() {
  ExperimentSpec spec;
  spec.name = "unit_telemetry";
  spec.apply_paper_scale = false;
  spec.base = TinyConfig(testbed::Scheme::kOrbitCache);
  spec.axes = {SchemeAxis(
      {testbed::Scheme::kOrbitCache, testbed::Scheme::kNoCache})};
  spec.run = FixedLoadRun();
  return spec;
}

TEST(TelemetryRunner, RecordsAreByteIdenticalWithTelemetryOnOrOff) {
  const std::vector<ExperimentSpec> specs = {TinySpec()};
  RunnerOptions off;
  off.progress = false;
  RunnerOptions on = off;
  on.capture_telemetry = true;
  on.trace_sample = 8;
  on.snapshot_interval = 2 * kMillisecond;

  const RunOutcome a = RunExperiments(specs, off);
  const RunOutcome b = RunExperiments(specs, on);
  EXPECT_TRUE(a.captures.empty());
  ASSERT_EQ(b.captures.size(), b.records.size());
  EXPECT_FALSE(b.captures[0].empty());
  // The headline promise: telemetry is a pure side channel.
  EXPECT_EQ(DumpJsonl(a.records), DumpJsonl(b.records));
}

TEST(TelemetryRunner, CountersIdenticalSerialVsParallel) {
  const std::vector<ExperimentSpec> specs = {TinySpec()};
  RunnerOptions serial;
  serial.progress = false;
  serial.capture_telemetry = true;
  serial.trace_sample = 8;
  serial.snapshot_interval = 2 * kMillisecond;
  RunnerOptions parallel = serial;
  parallel.jobs = 4;

  const RunOutcome a = RunExperiments(specs, serial);
  const RunOutcome b = RunExperiments(specs, parallel);
  ASSERT_EQ(a.captures.size(), b.captures.size());
  EXPECT_EQ(DumpJsonl(a.records), DumpJsonl(b.records));
  EXPECT_EQ(CountersJsonl(a.records, a.captures),
            CountersJsonl(b.records, b.captures));
  EXPECT_EQ(MergedChromeTrace(a.records, a.captures),
            MergedChromeTrace(b.records, b.captures));
}

TEST(TelemetryIo, CountersJsonlRoundTripsAndCarriesIdentity) {
  const std::vector<ExperimentSpec> specs = {TinySpec()};
  RunnerOptions options;
  options.progress = false;
  options.capture_telemetry = true;
  options.trace_sample = 0;  // counters only
  const RunOutcome out = RunExperiments(specs, options);

  const std::string jsonl = CountersJsonl(out.records, out.captures);
  ASSERT_FALSE(jsonl.empty());
  std::vector<JsonValue> lines;
  std::string error;
  ASSERT_TRUE(ParseCountersJsonl(jsonl, &lines, &error)) << error;
  ASSERT_GE(lines.size(), 2u);  // at least the final snapshot per point
  const JsonValue& first = lines.front();
  EXPECT_EQ(first.Find("experiment")->AsString(), "unit_telemetry");
  EXPECT_NE(first.Find("params")->Find("scheme"), nullptr);
  EXPECT_GT(first.Find("counters")->object().size(), 10u);
  // trace_sample 0 still permits counters but collects no hop records.
  for (const auto& cap : out.captures) EXPECT_TRUE(cap.stream.records.empty());
}

TEST(TelemetryIo, CaptureLabelNamesPointAndParams) {
  MetricsRecord rec;
  rec.experiment = "fig15";
  rec.point = 3;
  rec.rep = 1;
  rec.params = {{"scheme", "OrbitCache"}};
  EXPECT_EQ(CaptureLabel(rec), "fig15 point=3 rep=1 scheme=OrbitCache");
}

}  // namespace
}  // namespace orbit::harness

// INT postcard and histogram coverage: an instrumented run fills the
// stream and histogram capture, instrumentation is results-neutral,
// postcards and histogram merges are byte-identical serial vs --jobs N,
// flight dumps are byte-stable for a fixed seed, and duplicate telemetry
// registration is rejected naming both registrants. (The sink's own unit
// behavior is covered in test_telemetry and test_trace.)
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/check.h"
#include "harness/metrics.h"
#include "harness/runner.h"
#include "harness/telemetry_io.h"
#include "telemetry/counters.h"
#include "telemetry/flight.h"
#include "testbed/serialize.h"
#include "testbed/testbed.h"

namespace orbit::harness {
namespace {

// --- FlightRecorder unit behavior ------------------------------------------

TEST(FlightRecorder, RingKeepsLastNAndDumpIsBounded) {
  telemetry::FlightRecorder rec(/*capacity=*/4);
  const uint32_t comp = rec.Component("switch");
  for (uint64_t i = 0; i < 10; ++i) rec.Note(comp, 1'000 + i, "enqueue", i);
  rec.TriggerDump(2'000, "unit test");
  ASSERT_TRUE(rec.HasDumps());
  const std::string text = rec.DumpText();
  // Only the last 4 events survive the ring.
  EXPECT_EQ(text.find("a=5"), std::string::npos);
  EXPECT_NE(text.find("a=6"), std::string::npos);
  EXPECT_NE(text.find("a=9"), std::string::npos);
  EXPECT_NE(text.find("unit test"), std::string::npos);

  // A trigger storm cannot grow the capture without limit.
  for (int i = 0; i < 100; ++i) rec.TriggerDump(3'000 + i, "storm");
  EXPECT_LE(rec.num_dumps(), 8u);
  EXPECT_GT(rec.suppressed_dumps(), 0u);
}

TEST(FlightRecorder, CheckFailureHookObservesMessage) {
  std::string seen;
  {
    ScopedCheckFailureHook hook(
        [&seen](const std::string& what) { seen = what; });
    EXPECT_THROW(ORBIT_CHECK_MSG(false, "int test trip"), CheckFailure);
  }
  EXPECT_NE(seen.find("int test trip"), std::string::npos);
  // The hook is restored on scope exit: a later failure is not observed.
  seen.clear();
  EXPECT_THROW(ORBIT_CHECK(false), CheckFailure);
  EXPECT_TRUE(seen.empty());
}

TEST(Registry, DuplicateRegistrationNamesBothRegistrants) {
  telemetry::Registry reg;
  reg.AddCounter("switch.hits", [] { return 0u; }, "first-owner");
  try {
    reg.AddCounter("switch.hits", [] { return 0u; }, "second-owner");
    FAIL() << "duplicate registration must throw";
  } catch (const CheckFailure& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("switch.hits"), std::string::npos);
    EXPECT_NE(what.find("first-owner"), std::string::npos);
    EXPECT_NE(what.find("second-owner"), std::string::npos);
  }
  // Same name under a different kind is fine (kind-qualified claims).
  reg.AddGauge("switch.hits", [] { return 0u; }, "gauge-owner");
}

// --- Instrumented testbed runs ---------------------------------------------

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

TEST(IntTestbed, InstrumentedRunFillsIntCapture) {
  telemetry::RunCapture cap;
  testbed::TestbedConfig cfg = TinyConfig(testbed::Scheme::kOrbitCache);
  cfg.telemetry.capture = &cap;
  cfg.telemetry.trace_sample = 8;
  cfg.telemetry.histograms = true;
  cfg.telemetry.flight_recorder = true;
  cfg.telemetry.flight_end_dump = true;
  testbed::RunTestbed(cfg);

  ASSERT_FALSE(cap.stream.flows.empty());
  ASSERT_FALSE(cap.stream.sites.empty());
  bool saw_finished = false;
  for (const auto& flow : cap.stream.flows) {
    if (flow.finished_at != 0) saw_finished = true;
    EXPECT_LE(flow.hops, telemetry::Sink::kMaxHopsPerFlow);
  }
  EXPECT_TRUE(saw_finished);
  ASSERT_FALSE(cap.stream.records.empty());
  for (const auto& rec : cap.stream.records) {
    ASSERT_LT(rec.site, cap.stream.sites.size());
    ASSERT_LE(rec.flow, cap.stream.flows.size());
  }

  // Always-on histograms cover the shared hop classes.
  ASSERT_FALSE(cap.stream.hists.empty());
  bool saw_rtt = false;
  for (const auto& h : cap.stream.hists) {
    if (h.name == "hop.rtt.ns") {
      saw_rtt = true;
      EXPECT_GT(h.count, 0u);
      EXPECT_GE(h.p99, h.p50);
    }
  }
  EXPECT_TRUE(saw_rtt);

  // --flight-dump semantics: the end-of-run trigger freezes the rings.
  EXPECT_FALSE(cap.flight_dump.empty());
  EXPECT_NE(cap.flight_dump.find("end of run"), std::string::npos);
}

TEST(IntTestbed, IntIsResultsNeutral) {
  const testbed::TestbedConfig base = TinyConfig(testbed::Scheme::kOrbitCache);
  const testbed::TestbedResult plain = testbed::RunTestbed(base);

  telemetry::RunCapture cap;
  testbed::TestbedConfig instrumented = base;
  instrumented.telemetry.capture = &cap;
  instrumented.telemetry.trace_sample = 4;  // heavy sampling on purpose
  instrumented.telemetry.histograms = true;
  instrumented.telemetry.flight_recorder = true;
  instrumented.telemetry.flight_end_dump = true;
  const testbed::TestbedResult with_int = testbed::RunTestbed(instrumented);

  // Identical simulations: every serialized metric matches exactly, and
  // INT knobs never leak into a config's identity.
  EXPECT_EQ(testbed::ResultMetrics(plain).Dump(),
            testbed::ResultMetrics(with_int).Dump());
  EXPECT_EQ(plain.events_processed, with_int.events_processed);
  EXPECT_EQ(testbed::ConfigFingerprint(base),
            testbed::ConfigFingerprint(instrumented));
  EXPECT_FALSE(cap.stream.empty());
}

TEST(IntTestbed, FlightDumpByteStableAcrossRuns) {
  auto run = [](telemetry::RunCapture* cap) {
    testbed::TestbedConfig cfg = TinyConfig(testbed::Scheme::kNetCache);
    cfg.telemetry.capture = cap;
    cfg.telemetry.trace_sample = 8;
    cfg.telemetry.histograms = true;
    cfg.telemetry.flight_recorder = true;
    cfg.telemetry.flight_end_dump = true;
    testbed::RunTestbed(cfg);
  };
  telemetry::RunCapture a, b;
  run(&a);
  run(&b);
  ASSERT_FALSE(a.flight_dump.empty());
  EXPECT_EQ(a.flight_dump, b.flight_dump);
  // The hop stream repeats record for record too.
  EXPECT_EQ(a.stream.sites, b.stream.sites);
  ASSERT_EQ(a.stream.flows.size(), b.stream.flows.size());
  for (size_t i = 0; i < a.stream.flows.size(); ++i) {
    EXPECT_EQ(a.stream.flows[i].id, b.stream.flows[i].id);
    EXPECT_EQ(a.stream.flows[i].hops, b.stream.flows[i].hops);
  }
  EXPECT_EQ(a.stream.records.size(), b.stream.records.size());
}

// --- Harness-level determinism ---------------------------------------------

ExperimentSpec TinySpec() {
  ExperimentSpec spec;
  spec.name = "unit_int";
  spec.apply_paper_scale = false;
  spec.base = TinyConfig(testbed::Scheme::kOrbitCache);
  spec.axes = {SchemeAxis(
      {testbed::Scheme::kOrbitCache, testbed::Scheme::kNoCache})};
  spec.run = FixedLoadRun();
  return spec;
}

TEST(IntRunner, RecordsAreByteIdenticalWithIntOnOrOff) {
  const std::vector<ExperimentSpec> specs = {TinySpec()};
  RunnerOptions off;
  off.progress = false;
  RunnerOptions on = off;
  on.capture_telemetry = true;
  on.trace_sample = 8;
  on.histograms = true;
  on.flight_recorder = true;
  on.flight_end_dump = true;

  const RunOutcome a = RunExperiments(specs, off);
  const RunOutcome b = RunExperiments(specs, on);
  // The headline promise: INT is a pure side channel.
  EXPECT_EQ(DumpJsonl(a.records), DumpJsonl(b.records));
  ASSERT_EQ(b.captures.size(), b.records.size());
  EXPECT_FALSE(b.captures[0].stream.empty());
}

TEST(IntRunner, PostcardsAndHistogramsIdenticalSerialVsParallel) {
  const std::vector<ExperimentSpec> specs = {TinySpec()};
  RunnerOptions serial;
  serial.progress = false;
  serial.capture_telemetry = true;
  serial.trace_sample = 8;
  serial.histograms = true;
  serial.flight_recorder = true;
  serial.flight_end_dump = true;
  RunnerOptions parallel = serial;
  parallel.jobs = 4;

  const RunOutcome a = RunExperiments(specs, serial);
  const RunOutcome b = RunExperiments(specs, parallel);
  ASSERT_EQ(a.captures.size(), b.captures.size());
  EXPECT_EQ(DumpJsonl(a.records), DumpJsonl(b.records));
  // Per-slot INT JSONL and merged histogram snapshots are byte-identical
  // at any job count — the serial/parallel contract the tools rely on.
  EXPECT_EQ(IntJsonl(a.records, a.captures), IntJsonl(b.records, b.captures));
  EXPECT_EQ(HistJsonl(a.records, a.captures),
            HistJsonl(b.records, b.captures));
  EXPECT_EQ(FlightText(a.records, a.captures),
            FlightText(b.records, b.captures));
  ASSERT_FALSE(IntJsonl(a.records, a.captures).empty());
  ASSERT_FALSE(HistJsonl(a.records, a.captures).empty());
}

}  // namespace
}  // namespace orbit::harness

// Non-vacuity tests for the benchmark: its exact counts are deterministic
// per seed and move with the seed, the verifier really checks replies on
// the verified workload, and every probe does work whose result is used.
#include <gtest/gtest.h>

#include <set>

#include "bench.h"
#include "point.h"
#include "probes.h"
#include "spans.h"
#include "stats/histogram.h"
#include "workloads.h"

namespace perfbench {
namespace {

using orbit::kMillisecond;

// The workload's shape at a scale a unit test can afford.
Workload Small(const std::string& name, uint64_t seed) {
  std::optional<Workload> w = MakeWorkload(name, seed);
  EXPECT_TRUE(w.has_value()) << name;
  w->config.workload.num_keys = 100'000;
  w->config.warmup = 5 * kMillisecond;
  w->config.duration = 20 * kMillisecond;
  return *w;
}

const char* const kExactCounts[] = {"sim.events", "rmt.recirc_passes",
                                    "harness.sat_runs",
                                    "verify.replies_checked"};

TEST(Workloads, NamesResolveAndUnknownIsRejected) {
  for (const std::string& name : WorkloadNames())
    EXPECT_TRUE(MakeWorkload(name, 1).has_value()) << name;
  EXPECT_FALSE(MakeWorkload("no_such_workload", 1).has_value());
}

TEST(TracedRun, ExactCountsRepeatAtOneSeedAndMoveWithAnother) {
  for (const std::string& name : WorkloadNames()) {
    SCOPED_TRACE(name);
    const RunReport a = RunTraced(Small(name, 7), nullptr).report;
    const RunReport b = RunTraced(Small(name, 7), nullptr).report;
    const RunReport c = RunTraced(Small(name, 8), nullptr).report;
    for (const RunReport* r : {&a, &b, &c}) {
      EXPECT_EQ(r->failed, 0u);
      EXPECT_GT(r->attempted, 0u);
      for (const std::string& e : r->errors) ADD_FAILURE() << e;
    }
    for (const char* count : kExactCounts) {
      ASSERT_TRUE(a.metrics.count(count)) << count;
      EXPECT_EQ(a.metrics.at(count), b.metrics.at(count)) << count;
    }
    EXPECT_GT(a.metrics.at("sim.events"), 0);
    EXPECT_NE(a.metrics.at("sim.events"), c.metrics.at("sim.events"));
    EXPECT_NE(a.metrics.at("verify.replies_checked"),
              c.metrics.at("verify.replies_checked"));
    if (name == "fabric_rw_verified") {
      EXPECT_GT(a.metrics.at("verify.replies_checked"), 0);
    }
    if (name == "orbit_hot_read") {
      EXPECT_GT(a.metrics.at("rmt.recirc_passes"), 0);
    }
  }
}

TEST(TracedRun, ProbesAddTheirMetricsAndTheExplainedShare) {
  const Workload w = Small("orbit_hot_read", 2);
  TracedRun run = RunTraced(w, nullptr);
  ASSERT_TRUE(run.counts.has_value());
  RunProbes(w, run, nullptr);
  EXPECT_EQ(run.report.failed, 0u);
  for (const Probe& probe : AllProbes())
    EXPECT_GT(run.report.metrics[probe.metric], 0) << probe.metric;
  EXPECT_GT(run.report.metrics["layers.explained_pct"], 0);
}

TEST(EndToEndRun, PointsAgreeAndReportEveryMetric) {
  const RunReport r = RunEndToEnd(Small("netcache_uniform_rw", 3), 0.1);
  EXPECT_EQ(r.failed, 0u);
  EXPECT_GE(r.attempted, static_cast<uint64_t>(2 * kMinPoints + 1));
  for (const char* metric :
       {"point_wall_s", "setup_s", "peak_rss_mb", "sim_rx_mrps",
        "sim_read_p50_us", "sim_read_p999_us"}) {
    ASSERT_TRUE(r.metrics.count(metric)) << metric;
    EXPECT_GT(r.metrics.at(metric), 0) << metric;
  }
}

TEST(Probes, EveryProbeDoesWorkWhoseResultIsUsed) {
  for (const char* name : {"orbit_hot_read", "netcache_uniform_rw"}) {
    const Workload w = Small(name, 5);
    ProbeInputs inputs;
    inputs.workload = &w;
    inputs.queue = EstimateQueuePopulation(w, 2e6, 128);
    std::set<std::string> seen;
    for (const Probe& probe : AllProbes()) {
      SCOPED_TRACE(std::string(name) + " " + probe.metric);
      const ProbeResult r = RunProbe(probe, inputs);
      EXPECT_GT(r.ops, 0u);
      EXPECT_NE(r.checksum, 0u);
      EXPECT_GT(r.ns_per_op, 0);
      EXPECT_TRUE(seen.insert(probe.metric).second);
    }
  }
}

TEST(Probes, QueuePopulationFollowsOfferedLoad) {
  const Workload w = Small("orbit_hot_read", 1);
  const QueuePopulation low = EstimateQueuePopulation(w, 1e6, 128);
  const QueuePopulation high = EstimateQueuePopulation(w, 4e6, 128);
  EXPECT_EQ(low.long_horizon, 20'000u);  // 1M req/s x 20 ms deadlines
  EXPECT_GT(high.long_horizon, low.long_horizon);
  EXPECT_GT(low.short_horizon, 128u);
}

TEST(Quantile, InterpolatesInsideTheBucket) {
  orbit::stats::Histogram h;
  for (int64_t v = 1; v <= 100'000; ++v) h.Record(v);
  EXPECT_NEAR(InterpolatedQuantile(h, 0.5), 50'000, 250);
  EXPECT_NEAR(InterpolatedQuantile(h, 0.999), 99'900, 500);
  // Two populations whose medians share a histogram bucket still differ
  // when different shares of them lie below that bucket.
  orbit::stats::Histogram a, b;
  for (int i = 0; i < 1000; ++i) {
    a.Record(i < 400 ? 1'000 : 16'500);
    b.Record(i < 300 ? 1'000 : 16'500);
  }
  ASSERT_EQ(a.Median(), b.Median());
  EXPECT_LT(InterpolatedQuantile(a, 0.5), InterpolatedQuantile(b, 0.5));
  EXPECT_EQ(InterpolatedQuantile(orbit::stats::Histogram{}, 0.5), 0);
}

TEST(Spans, SelfTimeExcludesChildren) {
  Spans spans;
  const int root = spans.Begin("root", 9);
  const int child = spans.Begin("child");
  spans.End(child);
  spans.End(root);
  ASSERT_EQ(spans.spans().size(), 2u);
  EXPECT_EQ(spans.spans()[1].parent, 0);
  EXPECT_EQ(spans.spans()[1].point_id, 9u);
  const auto self = spans.SelfTimeByName();
  const Spans::Span& r = spans.spans()[0];
  const Spans::Span& c = spans.spans()[1];
  EXPECT_EQ(self.at("root"),
            (r.end_ns - r.start_ns) - (c.end_ns - c.start_ns));
  EXPECT_NE(spans.ToJson().find("\"child\""), std::string::npos);
}

}  // namespace
}  // namespace perfbench

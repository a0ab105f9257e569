// One workload point, run through the public testbed API, and the
// simulated (sim_*) metrics it yields.
#pragma once

#include <cstdint>

#include "spans.h"
#include "stats/histogram.h"
#include "testbed/testbed.h"
#include "workloads.h"

namespace perfbench {

// The simulated result of a point: deterministic per seed, so any two runs
// of the same point must agree on every field exactly.
struct SimMetrics {
  double rx_mrps = 0;  // replies per simulated second in the window
  double read_p50_us = 0;
  double read_p999_us = 0;
  uint64_t read_samples = 0;
  double write_p99_us = 0;  // 0 when the workload does not write
  uint64_t write_samples = 0;

  friend bool operator==(const SimMetrics&, const SimMetrics&) = default;

  // rx from `throughput`, latencies (cached and server reads merged) from
  // `latency`.
  static SimMetrics From(const orbit::testbed::TestbedResult& throughput,
                         const orbit::testbed::TestbedResult& latency);
};

// The q-quantile of `h`, interpolated by rank inside the quantile's bucket.
// Histogram::Percentile returns bucket mid-points, which snap to one of ~32
// values per octave; interpolating lets the value follow the data.
double InterpolatedQuantile(const orbit::stats::Histogram& h, double q);

struct PointOutcome {
  double wall_s = 0;  // host seconds for every testbed run of the point
  int sat_runs = 1;   // FindSaturation's runs; 1 for a fixed-rate point
  double offered_rps = 0;  // client Tx of the throughput run
  orbit::testbed::TestbedResult throughput;
  orbit::testbed::TestbedResult latency;
  SimMetrics sim;
};

// Saturation workloads: FindSaturation, then a latency run at
// kLatencyLoadShare of the saturated Tx (latency at the knee swings with
// the seed; below it, latency is a property of the design). Fixed-rate
// workloads: one RunTestbed whose result gives both. Throws what the
// testbed throws. Telemetry in the workload's config reaches only the
// throughput run.
inline constexpr double kLatencyLoadShare = 0.5;
PointOutcome RunPoint(const Workload& workload, Spans* spans,
                      uint64_t point_id);

// The config of the point's throughput run at `offered_rps`.
orbit::testbed::TestbedConfig ThroughputRunConfig(const Workload& workload,
                                                  double offered_rps);

}  // namespace perfbench

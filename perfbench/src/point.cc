#include "point.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>

namespace perfbench {

using orbit::stats::Histogram;
using orbit::testbed::TestbedConfig;
using orbit::testbed::TestbedResult;

double InterpolatedQuantile(const Histogram& h, double q) {
  const uint64_t n = h.count();
  if (n == 0) return 0;
  const double dn = static_cast<double>(n);
  // Percentile(q) reports the bucket holding rank max(1, round(q*n)).
  const uint64_t target = std::clamp<uint64_t>(
      static_cast<uint64_t>(std::clamp(q, 0.0, 1.0) * dn + 0.5), 1, n);
  auto at = [&](uint64_t rank) {
    return h.Percentile((static_cast<double>(rank) - 0.25) / dn);
  };
  const int64_t v = at(target);
  uint64_t lo = 1, hi = target;  // first rank in v's bucket
  while (lo < hi) {
    const uint64_t mid = lo + (hi - lo) / 2;
    if (at(mid) >= v) hi = mid; else lo = mid + 1;
  }
  const uint64_t first = lo;
  lo = target;
  hi = n;  // last rank in v's bucket
  while (lo < hi) {
    const uint64_t mid = lo + (hi - lo + 1) / 2;
    if (at(mid) <= v) lo = mid; else hi = mid - 1;
  }
  const uint64_t last = lo;
  // Bucket width per the histogram's layout: exact below 64, then 32
  // buckets per power of two, so a mid-point v sits in a bucket 2^g wide
  // with g = bit_width(v) - 6.
  const uint64_t uv = static_cast<uint64_t>(std::max<int64_t>(v, 0));
  const double width =
      uv < 64 ? 1.0 : std::ldexp(1.0, std::bit_width(uv) - 6);
  const double frac = (static_cast<double>(target - first) + 0.5) /
                      static_cast<double>(last - first + 1);
  return static_cast<double>(v) - width / 2 + width * frac;
}

SimMetrics SimMetrics::From(const TestbedResult& throughput,
                            const TestbedResult& latency) {
  SimMetrics m;
  m.rx_mrps = throughput.rx_rps / 1e6;
  Histogram reads = latency.read_cached_latency;
  reads.Merge(latency.read_server_latency);
  m.read_p50_us = InterpolatedQuantile(reads, 0.50) / 1e3;
  m.read_p999_us = InterpolatedQuantile(reads, 0.999) / 1e3;
  m.read_samples = reads.count();
  m.write_p99_us = InterpolatedQuantile(latency.write_latency, 0.99) / 1e3;
  m.write_samples = latency.write_latency.count();
  return m;
}

TestbedConfig ThroughputRunConfig(const Workload& workload,
                                  double offered_rps) {
  TestbedConfig cfg = workload.config;
  cfg.topo.client_rate_rps = offered_rps;
  return cfg;
}

PointOutcome RunPoint(const Workload& workload, Spans* spans,
                      uint64_t point_id) {
  ScopedSpan point_span(spans, "point", point_id);
  PointOutcome out;
  const auto start = std::chrono::steady_clock::now();
  if (workload.saturation) {
    {
      ScopedSpan span(spans, "testbed.FindSaturation");
      orbit::testbed::SaturationResult sat =
          orbit::testbed::FindSaturation(workload.config);
      out.sat_runs = sat.runs;
      out.offered_rps = sat.sat_tx_rps;
      out.throughput = std::move(sat.result);
    }
    TestbedConfig lat = ThroughputRunConfig(
        workload, kLatencyLoadShare * out.offered_rps);
    lat.telemetry = TestbedConfig::Telemetry{};
    ScopedSpan span(spans, "testbed.RunTestbed.latency");
    out.latency = orbit::testbed::RunTestbed(lat);
  } else {
    ScopedSpan span(spans, "testbed.RunTestbed");
    out.offered_rps = workload.config.topo.client_rate_rps;
    out.throughput = orbit::testbed::RunTestbed(workload.config);
    out.latency = out.throughput;
  }
  out.wall_s = std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start)
                   .count();
  out.sim = SimMetrics::From(out.throughput, out.latency);
  return out;
}

}  // namespace perfbench

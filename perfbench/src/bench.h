// The two kinds of benchmark run: an untraced run that times the
// workload's point and reports the end-to-end metrics, and a traced run
// that reports the per-layer metrics.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "probes.h"
#include "spans.h"
#include "workloads.h"

namespace perfbench {

struct RunReport {
  // Points (or single testbed runs) checked, and those that threw, blew
  // the deadline, reported a verifier violation, failed a sanity check or
  // disagreed with the run's first point on a sim_* value.
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;
  std::map<std::string, double> metrics;
  std::vector<std::string> notes;  // extra lines for the printed table
};

// Host-time limit for one point; past it the simulator throws.
inline constexpr double kPointDeadlineS = 90.0;

// Repeats the workload's point until `seconds` are used (at least
// kMinPoints times). Before each point it times one batch of set-ups,
// repeated for at least kSetupBatchS. Reports the median point and the
// median of the batches' mean set-up times: on a shared host a single
// ~1 ms set-up lands in a fast or a slow mode that switches every
// 10-50 ms, and a batch averages over those switches.
inline constexpr int kMinPoints = 3;
inline constexpr double kSetupBatchS = 0.1;
RunReport RunEndToEnd(const Workload& workload, double seconds);

// What the probe step needs from a traced run: how often the throughput
// run crossed each layer, its host time, and the event queue's population.
struct LayerCounts {
  double events = 0;
  double requests = 0;
  double replies = 0;
  double link_pkts = 0;  // front-port packets into and out of switches
  double recirc = 0;
  double kv_ops = 0;
  double orbit_absorbed = 0;
  double netcache_reads = 0;
  double run_ns = 0;  // median host ns of the untraced throughput runs
  QueuePopulation queue;
};

struct TracedRun {
  RunReport report;
  std::optional<LayerCounts> counts;  // unset when the run failed first
};

// The traced run: one set-up, the point, then kOverheadRounds rounds of
// its throughput run untraced, traced with the counter capture, and with
// the verifier toggled, each inside a span. Every count is exact and comes
// from the first traced run.
inline constexpr int kOverheadRounds = 3;
TracedRun RunTraced(const Workload& workload, Spans* spans);

// Runs every probe, each inside a span, with the traced run's inputs, and
// adds the probes' metrics and layers.explained_pct to `run.report`. Does
// nothing when the run has no counts.
void RunProbes(const Workload& workload, TracedRun& run, Spans* spans);

}  // namespace perfbench

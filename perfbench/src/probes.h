// Per-layer probes: timed loops over one layer's public functions, fed with
// a workload's inputs (its key count, key distribution and value sizes).
// Each returns host ns per operation; the checksum folds in every result
// the loop produced, so the compiler cannot drop the work.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "workloads.h"

namespace perfbench {

struct ProbeResult {
  double ns_per_op = 0;
  uint64_t ops = 0;  // operations timed in one pass
  uint64_t checksum = 0;
};

// Pending events in the workload's simulator, split by how far ahead they
// are scheduled.
struct QueuePopulation {
  uint64_t long_horizon = 0;   // client request deadlines
  uint64_t short_horizon = 1;  // everything else
};

struct ProbeInputs {
  const Workload* workload = nullptr;
  QueuePopulation queue;  // for sim.queue_ns_per_op
};

struct Probe {
  std::string metric;  // per-layer metric name, e.g. "kv.get_ns"
  std::function<ProbeResult(const ProbeInputs&)> run;
};

// Every probe, in the order the benchmark runs them.
const std::vector<Probe>& AllProbes();

// The median-ns pass of kProbeRepeats runs of `probe`.
inline constexpr int kProbeRepeats = 3;
ProbeResult RunProbe(const Probe& probe, const ProbeInputs& inputs);

// The pending events while the workload runs at `offered_rps`: every
// request keeps a client deadline timer armed for request_timeout (even
// after its reply), which dominates.
QueuePopulation EstimateQueuePopulation(const Workload& workload,
                                        double offered_rps,
                                        uint64_t cache_packets_in_flight);

}  // namespace perfbench

// Every metric and workload the benchmark reports, as BENCHMARK.json lists
// them: names, units, directions and each workload's why are read from that
// file. Only what it does not hold lives here: for each per-layer metric,
// the end-to-end metric it should move and the workload it moves it on.
#pragma once

#include <string>
#include <vector>

namespace perfbench {

struct MetricInfo {
  std::string name;
  std::string unit;
  std::string better;  // "lower" or "higher"
  std::string moves;   // per-layer only: the e2e metric it should move
  std::string on;      // per-layer only: the workload(s) it moves it on
};

struct WorkloadInfo {
  std::string name;
  std::string why;
};

struct Catalogue {
  std::vector<WorkloadInfo> workloads;
  std::vector<MetricInfo> end_to_end;
  std::vector<MetricInfo> per_layer;
};

// Reads the catalogue from the BENCHMARK.json at `path`; false with
// `error` set when the file cannot be read or parsed.
bool LoadCatalogue(const std::string& path, Catalogue* out,
                   std::string* error);

}  // namespace perfbench

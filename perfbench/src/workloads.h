// The benchmark's workloads: each is one figure point of the §5.1 testbed,
// generated from a seed. Why each one is there is in BENCHMARK.json. The simulator only ever sees the TestbedConfig
// built here.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "testbed/testbed.h"

namespace perfbench {

struct Workload {
  std::string name;
  // Saturation workloads run testbed::FindSaturation, as the throughput
  // figures do; the others run one testbed::RunTestbed at config's rate.
  bool saturation = false;
  orbit::testbed::TestbedConfig config;
};

const std::vector<std::string>& WorkloadNames();

// nullopt for an unknown name.
std::optional<Workload> MakeWorkload(std::string_view name, uint64_t seed);

// The workload's testbed with a 1 ns warmup and a 1 ns window: running it
// costs the testbed's set-up and tear-down and nothing else.
orbit::testbed::TestbedConfig SetupOnlyConfig(const Workload& workload);

}  // namespace perfbench

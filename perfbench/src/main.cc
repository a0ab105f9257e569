// perfbench: the repository benchmark. One invocation runs one workload:
//   perfbench --benchmark BENCHMARK.json --workload NAME --seed N
//             --seconds S --trace 0|1
//             [--commit SHA] [--spans-out PATH] [--record-out PATH]
//   perfbench --benchmark BENCHMARK.json --list
// --trace 0 times the workload's point untraced and reports the end-to-end
// metrics; --trace 1 runs it traced and reports the per-layer metrics,
// writing its spans to --spans-out. The workloads and metrics reported are
// the ones BENCHMARK.json lists. --list prints every workload with why it
// is there, and every metric with its unit, direction and, for the
// per-layer ones, the end-to-end metric it should move and where. A run
// prints its metrics the same way; its last stdout line is the result as
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>

#include "bench.h"
#include "metrics.h"
#include "spans.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

struct Args {
  std::string benchmark;
  bool list = false;
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  std::string commit = "unknown";
  std::string spans_out;
  std::string record_out;
};

void PrintMetric(const MetricInfo& info, const double* value) {
  char line[256];
  if (value != nullptr) {
    std::snprintf(line, sizeof(line), "  %-32s %16.6g %-6s %-7s",
                  info.name.c_str(), *value, info.unit.c_str(),
                  info.better.c_str());
  } else {
    std::snprintf(line, sizeof(line), "  %-32s %-6s %-7s", info.name.c_str(),
                  info.unit.c_str(), info.better.c_str());
  }
  std::cout << line;
  if (!info.moves.empty()) std::cout << "  moves " << info.moves;
  if (!info.on.empty()) std::cout << " on " << info.on;
  std::cout << "\n";
}

int List(const Catalogue& catalogue) {
  std::cout << "workloads:\n";
  for (const WorkloadInfo& w : catalogue.workloads)
    std::cout << "  " << w.name << ": " << w.why << "\n";
  std::cout << "end-to-end metrics (--trace 0):\n";
  for (const MetricInfo& info : catalogue.end_to_end)
    PrintMetric(info, nullptr);
  std::cout << "per-layer metrics (--trace 1):\n";
  for (const MetricInfo& info : catalogue.per_layer)
    PrintMetric(info, nullptr);
  return 0;
}

int Usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --benchmark BENCHMARK.json "
               "--workload NAME --seed N --seconds S --trace 0|1 "
               "[--commit SHA] [--spans-out PATH] [--record-out PATH]\n"
               "       perfbench --benchmark BENCHMARK.json --list\n",
               msg);
  return 2;
}

bool Parse(int argc, char** argv, Args* args, std::string* error) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--list") {
      args->list = true;
      continue;
    }
    if (i + 1 >= argc) {
      *error = "missing value for " + flag;
      return false;
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--benchmark") {
      args->benchmark = value;
    } else if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      args->trace = value == "0" ? 0 : value == "1" ? 1 : -1;
    } else if (flag == "--commit") {
      args->commit = value;
    } else if (flag == "--spans-out") {
      args->spans_out = value;
    } else if (flag == "--record-out") {
      args->record_out = value;
    } else {
      *error = "unknown flag " + flag;
      return false;
    }
    if (end != nullptr && (*end != '\0' || value.empty())) {
      *error = "bad number for " + flag + ": " + value;
      return false;
    }
  }
  if (args->benchmark.empty()) *error = "--benchmark is required";
  else if (args->list) return true;
  else if (args->workload.empty()) *error = "--workload is required";
  else if (args->trace < 0) *error = "--trace must be 0 or 1";
  else if (args->seconds <= 0) *error = "--seconds must be positive";
  return error->empty();
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos && colon + 2 <= line.size())
        return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string Number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

bool WriteFile(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  out << text;
  return static_cast<bool>(out);
}

int Main(int argc, char** argv) {
#ifndef __OPTIMIZE__
  std::fprintf(stderr,
               "perfbench: this build is not optimized (build type %s); "
               "configure with -DCMAKE_BUILD_TYPE=RelWithDebInfo\n",
               PERFBENCH_BUILD_TYPE);
  return 3;
#endif
  Args args;
  std::string error;
  if (!Parse(argc, argv, &args, &error)) return Usage(error.c_str());
  Catalogue catalogue;
  if (!LoadCatalogue(args.benchmark, &catalogue, &error))
    return Usage(error.c_str());
  if (args.list) return List(catalogue);
  bool listed = false;
  for (const WorkloadInfo& w : catalogue.workloads)
    listed = listed || w.name == args.workload;
  const std::optional<Workload> workload =
      MakeWorkload(args.workload, args.seed);
  if (!listed || !workload)
    return Usage(("unknown workload " + args.workload).c_str());

  std::ostringstream provenance;
  provenance << "{\"workload\": " << JsonString(args.workload)
             << ", \"seed\": " << args.seed << ", \"trace\": " << args.trace
             << ", \"commit\": " << JsonString(args.commit)
             << ", \"build_type\": " << JsonString(PERFBENCH_BUILD_TYPE)
             << ", \"nproc\": " << std::thread::hardware_concurrency()
             << ", \"cpu_model\": " << JsonString(CpuModel()) << "}";
  std::cout << "provenance " << provenance.str() << "\n";

  Spans spans;
  RunReport report;
  if (args.trace == 0) {
    report = RunEndToEnd(*workload, args.seconds);
  } else {
    ScopedSpan root(&spans, "run", 0);
    TracedRun run = RunTraced(*workload, &spans);
    RunProbes(*workload, run, &spans);
    report = std::move(run.report);
  }

  const std::vector<MetricInfo>& infos =
      args.trace == 0 ? catalogue.end_to_end : catalogue.per_layer;
  bool complete = true;
  std::cout << (args.trace == 0 ? "end-to-end" : "per-layer") << " metrics ("
            << args.workload << ", seed " << args.seed << "):\n";
  for (const MetricInfo& info : infos) {
    const auto it = report.metrics.find(info.name);
    if (it == report.metrics.end()) {
      complete = false;
      std::cout << "  " << info.name << "  MISSING\n";
      continue;
    }
    PrintMetric(info, &it->second);
  }
  for (const std::string& note : report.notes)
    std::cout << "  " << note << "\n";
  if (args.trace == 1) {
    std::cout << "span self time (ms):\n";
    for (const auto& [name, ns] : spans.SelfTimeByName()) {
      char line[256];
      std::snprintf(line, sizeof(line), "  %-40s %12.3f", name.c_str(),
                    ns / 1e6);
      std::cout << line << "\n";
    }
  }
  for (const std::string& e : report.errors)
    std::cerr << "FAILED " << e << "\n";

  const bool correct = complete && report.failed == 0 && report.attempted > 0;
  std::ostringstream metrics;
  metrics << "{";
  bool first = true;
  for (const MetricInfo& info : infos) {
    const auto it = report.metrics.find(info.name);
    if (it == report.metrics.end()) continue;
    metrics << (first ? "" : ", ") << JsonString(info.name) << ": {\"value\": "
            << Number(it->second) << ", \"unit\": " << JsonString(info.unit)
            << "}";
    first = false;
  }
  metrics << "}";
  std::ostringstream result;
  result << "{\"correct\": " << (correct ? "true" : "false")
         << ", \"attempted\": " << report.attempted
         << ", \"failed\": " << report.failed
         << ", \"metrics\": " << metrics.str()
         << "}";

  if (!args.spans_out.empty() && args.trace == 1 &&
      !WriteFile(args.spans_out, spans.ToJson()))
    std::cerr << "perfbench: cannot write " << args.spans_out << "\n";
  if (!args.record_out.empty() &&
      !WriteFile(args.record_out, "{\"provenance\": " + provenance.str() +
                                      ", \"result\": " + result.str() + "}\n"))
    std::cerr << "perfbench: cannot write " << args.record_out << "\n";
  std::cout << result.str() << std::endl;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }

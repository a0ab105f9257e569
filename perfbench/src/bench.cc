#include "bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <exception>
#include <functional>
#include <optional>
#include <sstream>
#include <string_view>

#include "point.h"
#include "sim/simulator.h"
#include "telemetry/counters.h"

namespace perfbench {

using orbit::testbed::Scheme;
using orbit::testbed::TestbedConfig;
using orbit::testbed::TestbedResult;

namespace {

double Seconds(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n == 0 ? 0 : n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// Runs `fn` under the point deadline; a throw marks the unit failed.
template <typename T>
std::optional<T> Attempt(RunReport& report, const std::string& what,
                         const std::function<T()>& fn) {
  ++report.attempted;
  try {
    orbit::sim::ScopedThreadDeadline deadline(kPointDeadlineS);
    return fn();
  } catch (const std::exception& e) {
    ++report.failed;
    report.errors.push_back(what + ": " + e.what());
    return std::nullopt;
  }
}

void Fail(RunReport& report, const std::string& what) {
  ++report.failed;
  report.errors.push_back(what);
}

// Checks one run's own outputs: no verifier violation, replies flowing, and
// enough read samples that p99.9 has at least ten beyond it.
bool RunIsSane(RunReport& report, const std::string& what,
               const TestbedResult& result) {
  std::ostringstream why;
  if (result.verify_violations > 0)
    why << result.verify_violations << " verifier violations: "
        << result.verify_report;
  if (result.rx_rps <= 0) why << "no replies in the window";
  if (why.str().empty()) return true;
  report.errors.push_back(what + ": " + why.str());
  return false;
}

bool PointIsSane(RunReport& report, const std::string& what,
                 const PointOutcome& p) {
  if (!RunIsSane(report, what, p.throughput)) return false;
  if (!RunIsSane(report, what + " latency run", p.latency)) return false;
  if (p.sim.read_samples / 1000 < 10) {
    report.errors.push_back(what + ": only " +
                            std::to_string(p.sim.read_samples) +
                            " read samples; p99.9 needs 10 beyond it");
    return false;
  }
  return true;
}

std::string SimNote(const SimMetrics& s) {
  std::ostringstream os;
  os << "read latency samples: " << s.read_samples
     << " (beyond p99.9: "
     << s.read_samples - (s.read_samples * 999 + 999) / 1000
     << "); write latency samples: " << s.write_samples;
  return os.str();
}

void CheckSameSim(RunReport& report, const std::string& what,
                  const SimMetrics& got, const SimMetrics& want) {
  if (got == want) return;
  Fail(report, what + ": sim_* values differ from the first point of the run");
}

// Sum of every counter in `snap` whose name contains `part` and ends with
// `suffix` (components are prefixed per instance: "client.3.", "leaf2.").
double SumCounters(const orbit::telemetry::Snapshot& snap,
                   std::string_view part, std::string_view suffix) {
  double sum = 0;
  for (const auto& [name, value] : snap.counters) {
    if (name.size() >= suffix.size() &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0 &&
        name.find(part) != std::string::npos)
      sum += static_cast<double>(value);
  }
  return sum;
}

}  // namespace

RunReport RunEndToEnd(const Workload& workload, double seconds) {
  RunReport report;
  const auto start = std::chrono::steady_clock::now();

  // The process's first set-up also fills lazy process-wide state (the
  // Zipf normalisation constant for the key space), so it is not timed.
  const TestbedConfig setup_cfg = SetupOnlyConfig(workload);
  Attempt<TestbedResult>(report, "first setup", [&] {
    return orbit::testbed::RunTestbed(setup_cfg);
  });
  std::vector<double> setups;
  auto setup_batch = [&] {
    std::optional<double> mean = Attempt<double>(report, "setup batch", [&] {
      const auto t = std::chrono::steady_clock::now();
      int n = 0;
      do {
        orbit::testbed::RunTestbed(setup_cfg);
        ++n;
      } while (n < 3 || Seconds(t) < kSetupBatchS);
      return Seconds(t) / n;
    });
    if (mean) setups.push_back(*mean);
  };

  std::vector<double> walls;
  std::optional<PointOutcome> first;
  double last_wall = 0;
  for (uint64_t i = 1;
       walls.size() < static_cast<size_t>(kMinPoints) ||
       Seconds(start) + last_wall <= seconds;
       ++i) {
    setup_batch();
    const std::string what = "point " + std::to_string(i);
    std::optional<PointOutcome> p = Attempt<PointOutcome>(
        report, what, [&] { return RunPoint(workload, nullptr, i); });
    if (!p) {
      if (i >= static_cast<uint64_t>(kMinPoints)) break;
      continue;
    }
    last_wall = p->wall_s;
    walls.push_back(p->wall_s);
    if (!PointIsSane(report, what, *p)) {
      ++report.failed;
    } else if (!first) {
      first = std::move(p);
    } else {
      CheckSameSim(report, what, p->sim, first->sim);
    }
  }

  report.metrics["point_wall_s"] = Median(walls);
  report.metrics["setup_s"] = Median(setups);
  report.metrics["peak_rss_mb"] = PeakRssMb();
  if (first) {
    report.metrics["sim_rx_mrps"] = first->sim.rx_mrps;
    report.metrics["sim_read_p50_us"] = first->sim.read_p50_us;
    report.metrics["sim_read_p999_us"] = first->sim.read_p999_us;
    report.notes.push_back(SimNote(first->sim));
    report.notes.push_back("points timed: " + std::to_string(walls.size()) +
                           ", set-up batches timed: " +
                           std::to_string(setups.size()));
  }
  return report;
}

TracedRun RunTraced(const Workload& workload, Spans* spans) {
  TracedRun run;
  RunReport& report = run.report;
  std::map<std::string, double>& m = report.metrics;

  // One set-up first: it also fills lazy process-wide state (the Zipf
  // normalisation constant), so every timed run below starts warm.
  {
    ScopedSpan span(spans, "testbed.RunTestbed.setup", 6);
    Attempt<TestbedResult>(report, "setup", [&] {
      return orbit::testbed::RunTestbed(SetupOnlyConfig(workload));
    });
  }

  // The point, untraced.
  std::optional<PointOutcome> plain = Attempt<PointOutcome>(
      report, "point", [&] { return RunPoint(workload, spans, 1); });
  if (!plain) return run;
  if (!PointIsSane(report, "point", *plain)) {
    ++report.failed;
    return run;
  }
  const SimMetrics want =
      SimMetrics::From(plain->throughput, plain->throughput);

  // The point's throughput run alone, in kOverheadRounds rounds of three:
  // untraced, traced with the program's counter capture, and with the
  // verifier toggled. Host speed drifts on a shared machine, so each
  // overhead is the median over rounds of the run's time against the
  // untraced run of the same round. Every run must reproduce the point's
  // sim_* values; the counts come from the first traced run.
  const TestbedConfig final_cfg =
      ThroughputRunConfig(workload, plain->offered_rps);
  auto timed_run = [&](const std::string& what, const TestbedConfig& cfg,
                       uint64_t point_id, double* wall) {
    const auto t = std::chrono::steady_clock::now();
    std::optional<TestbedResult> r =
        Attempt<TestbedResult>(report, what, [&] {
          ScopedSpan span(spans, "testbed.RunTestbed." + what, point_id);
          return orbit::testbed::RunTestbed(cfg);
        });
    *wall = Seconds(t);
    if (r) {
      if (!RunIsSane(report, what, *r)) ++report.failed;
      CheckSameSim(report, what, SimMetrics::From(*r, *r), want);
    }
    return r;
  };
  TestbedConfig toggled = final_cfg;
  toggled.verify.enabled = !final_cfg.verify.enabled;
  toggled.verify.fail_fast = false;
  const bool on = toggled.verify.enabled;
  std::vector<orbit::telemetry::RunCapture> captures(kOverheadRounds);
  std::optional<TestbedResult> traced;
  std::optional<TestbedResult> vr;
  std::vector<double> untraced_walls, traced_pct, verify_pct;
  for (int round = 0; round < kOverheadRounds; ++round) {
    const uint64_t id = 2 + static_cast<uint64_t>(round);
    TestbedConfig traced_cfg = final_cfg;
    traced_cfg.telemetry.capture = &captures[static_cast<size_t>(round)];
    traced_cfg.telemetry.trace_sample = 0;  // counters only
    double untraced_wall = 0, traced_wall = 0, toggled_wall = 0;
    const std::optional<TestbedResult> u =
        timed_run("untraced", final_cfg, id, &untraced_wall);
    std::optional<TestbedResult> t =
        timed_run("traced", traced_cfg, id, &traced_wall);
    std::optional<TestbedResult> v =
        timed_run("verify_toggled", toggled, id, &toggled_wall);
    if (!u || !t || !v) return run;
    if (round == 0) {
      traced = std::move(t);
      vr = std::move(v);
    }
    untraced_walls.push_back(untraced_wall);
    traced_pct.push_back(Ratio(traced_wall - untraced_wall, untraced_wall) *
                         100);
    const double verify_on_wall = on ? toggled_wall : untraced_wall;
    const double verify_off_wall = on ? untraced_wall : toggled_wall;
    verify_pct.push_back(
        Ratio(verify_on_wall - verify_off_wall, verify_off_wall) * 100);
  }
  if (captures[0].snapshots.empty()) {
    Fail(report, "traced run: the counter capture holds no snapshot");
    return run;
  }
  const orbit::telemetry::Snapshot& snap = captures[0].snapshots.back();
  const uint64_t replies_checked = on ? vr->verify_replies_checked
                                      : traced->verify_replies_checked;

  const TestbedResult& tr = *traced;
  LayerCounts c;
  c.events = static_cast<double>(tr.events_processed);
  c.requests = SumCounters(snap, "client.", ".tx_requests");
  c.replies = SumCounters(snap, "client.", ".rx_replies");
  c.recirc = SumCounters(snap, "", "switch.recirc.passes");
  c.kv_ops = SumCounters(snap, "server.", ".requests");
  c.orbit_absorbed = SumCounters(snap, "", "orbit.absorbed");
  c.netcache_reads = SumCounters(snap, "", "netcache.read_requests");
  c.run_ns = Median(untraced_walls) * 1e9;
  c.queue = EstimateQueuePopulation(workload, plain->offered_rps,
                                    tr.cache_packets_in_flight);
  const double switch_rx = SumCounters(snap, "", "switch.rx_packets");
  c.link_pkts =
      switch_rx - c.recirc + SumCounters(snap, "", "switch.tx_packets");
  m["sim.events"] = c.events;
  m["sim.events_per_req"] = Ratio(c.events, c.requests);
  m["sim.ns_per_event"] = Ratio(c.run_ns, c.events);
  m["rmt.switch_pkts"] = switch_rx;
  m["rmt.recirc_passes"] = c.recirc;
  m["rmt.recirc_share"] = Ratio(c.recirc, c.events);
  m["orbitcache.hit_ratio"] =
      Ratio(SumCounters(snap, "", "orbit.read_hits"),
            SumCounters(snap, "", "orbit.read_requests"));
  m["orbitcache.overflow_ratio"] =
      Ratio(SumCounters(snap, "", "orbit.overflow_to_server"),
            SumCounters(snap, "", "orbit.read_hits"));
  m["orbitcache.cp_waste_ratio"] =
      Ratio(SumCounters(snap, "", "orbit.cp_drop.evicted") +
                SumCounters(snap, "", "orbit.cp_drop.invalid") +
                SumCounters(snap, "", "orbit.cp_drop.epoch"),
            SumCounters(snap, "", "orbit.validations"));
  m["netcache.hit_ratio"] =
      Ratio(SumCounters(snap, "", "netcache.read_hits"), c.netcache_reads);
  m["apps.replies"] = c.replies;
  m["apps.timeouts"] = SumCounters(snap, "client.", ".timeouts");
  m["apps.retransmissions"] = SumCounters(snap, "client.", ".retransmissions");
  m["apps.write_p99_us"] = plain->sim.write_p99_us;
  m["kv.ops"] = c.kv_ops;
  m["fabric.switch_pkts_per_req"] = Ratio(switch_rx - c.recirc, c.requests);
  m["verify.replies_checked"] = static_cast<double>(replies_checked);
  m["verify.overhead_pct"] = Median(verify_pct);
  m["telemetry.overhead_pct"] = Median(traced_pct);
  m["harness.sat_runs"] = plain->sat_runs;
  run.counts = c;
  return run;
}

void RunProbes(const Workload& workload, TracedRun& run, Spans* spans) {
  if (!run.counts) return;
  const LayerCounts& c = *run.counts;
  RunReport& report = run.report;
  std::map<std::string, double>& m = report.metrics;
  ProbeInputs inputs;
  inputs.workload = &workload;
  inputs.queue = c.queue;
  for (const Probe& probe : AllProbes()) {
    std::optional<ProbeResult> r =
        Attempt<ProbeResult>(report, "probe " + probe.metric, [&] {
          ScopedSpan span(spans, "probe." + probe.metric, 7);
          return RunProbe(probe, inputs);
        });
    if (r) m[probe.metric] = r->ns_per_op;
  }

  // How much of the throughput run's host time the probes account for:
  // per-operation costs of the layers the run crosses, times how often it
  // crossed them. The apps.* probes run inside a simulator of their own
  // and would double-count the event core and links, so they stay out.
  double explained_ns =
      c.events * m["sim.queue_ns_per_op"] +
      c.link_pkts *
          std::max(0.0, m["sim.link_ns_per_pkt"] - m["sim.queue_ns_per_op"]) +
      c.requests * m["workload.next_ns"] +
      c.replies * m["stats.hist_record_ns"] + c.kv_ops * m["kv.get_ns"];
  if (workload.config.scheme == Scheme::kOrbitCache) {
    explained_ns += c.recirc * m["orbitcache.cp_pass_ns"] +
                    c.orbit_absorbed * m["orbitcache.req_table_ns_per_op"];
  } else if (workload.config.scheme == Scheme::kNetCache) {
    explained_ns += c.netcache_reads * m["netcache.ingress_ns_per_pkt"];
  }
  m["layers.explained_pct"] = Ratio(explained_ns, c.run_ns) * 100;
}

}  // namespace perfbench

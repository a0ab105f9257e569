// Chrome trace-event JSON (Perfetto / chrome://tracing): one exporter of
// the hop-record stream (telemetry/sink.h; the postcard JSONL exporter is
// harness::IntJsonl).
//
// Every record becomes one event on its site's track, named by its kind
// (plus ":detail"): a complete ("X") span when it accounts for time — from
// its time for opening kinds, ending at it for closing ones — else an
// instant. The writer is deterministic: events appear in write order,
// timestamps are integer-nanosecond sim times printed as exact microsecond
// decimals, and no wall-clock or environment data is embedded. Multiple
// captures (one per experiment point) merge into a single trace file as
// separate processes, labeled via process_name metadata, so a whole sweep
// opens as one Perfetto session.
#pragma once

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "telemetry/sink.h"

namespace orbit::telemetry {

// One process in the merged trace: a human-readable label (e.g.
// "fig15_latency_breakdown point=0 rep=0 scheme=OrbitCache") and the
// stream captured for it. pid = position in the vector.
using LabeledCapture = std::pair<std::string, const StreamCapture*>;

// Full Chrome trace-event document ({"displayTimeUnit":…,"traceEvents":[…]}).
std::string ChromeTraceJson(const std::vector<LabeledCapture>& processes);

// Per-request roll-up of one flow — the paper's §5 latency breakdown
// (Fig. 15) for one sampled request: its end-to-end latency plus the time
// spent in each hop kind, summed over repeated hops (e.g. several
// recirculation passes). int_report builds them from postcards.
struct RequestSummary {
  SimTime total = 0;  // first send to reply or timeout; 0 = never finished
  std::vector<std::pair<std::string, SimTime>> hops;  // kind -> summed dur

  // Adds one hop record's time under its kind name, in first-seen order.
  // Instants (dur <= 0) carry no time, and client_rx/timeout records span
  // the whole request (that is `total`), so neither adds to a hop.
  void AddHop(std::string_view kind, SimTime dur);
};

// Renders the min/mean/max (µs) table over `summaries`: a header, the
// "request (end-to-end)" row, then one row per hop kind in first-seen
// order, each over the requests that spent time there.
std::string FormatHopBreakdown(const std::vector<RequestSummary>& summaries);

}  // namespace orbit::telemetry

#include "telemetry/export.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "sim/link.h"

namespace orbit::telemetry {

namespace {

void AppendEscaped(std::string* out, const std::string& s) {
  for (char c : s) {
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\n': *out += "\\n"; break;
      case '\t': *out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          *out += c;
        }
    }
  }
}

// Chrome trace timestamps are microseconds; sim time is integer
// nanoseconds, so print the exact three-decimal form (no float rounding).
void AppendMicros(std::string* out, SimTime ns) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%lld.%03lld",
                static_cast<long long>(ns / 1000),
                static_cast<long long>(ns % 1000));
  *out += buf;
}

void AppendMeta(std::string* out, int pid, int tid, const char* kind,
                const std::string& name, bool* first) {
  if (!*first) *out += ",\n";
  *first = false;
  char head[96];
  if (tid >= 0)
    std::snprintf(head, sizeof(head), R"({"ph":"M","pid":%d,"tid":%d,)", pid,
                  tid);
  else
    std::snprintf(head, sizeof(head), R"({"ph":"M","pid":%d,)", pid);
  *out += head;
  *out += R"("name":")";
  *out += kind;
  *out += R"(","args":{"name":")";
  AppendEscaped(out, name);
  *out += R"("}})";
}

}  // namespace

std::string ChromeTraceJson(const std::vector<LabeledCapture>& processes) {
  std::string out;
  out.reserve(1024);
  out += "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
  bool first = true;
  for (size_t pid = 0; pid < processes.size(); ++pid) {
    const auto& [label, cap] = processes[pid];
    if (cap == nullptr) continue;
    AppendMeta(&out, static_cast<int>(pid), -1, "process_name", label, &first);
    for (size_t tid = 0; tid < cap->sites.size(); ++tid)
      AppendMeta(&out, static_cast<int>(pid), static_cast<int>(tid),
                 "thread_name", cap->sites[tid], &first);
    for (const HopRecord& rec : cap->records) {
      if (!first) out += ",\n";
      first = false;
      char head[64];
      std::snprintf(head, sizeof(head), R"({"ph":"%s","pid":%d,"tid":%u,)",
                    rec.dur > 0 ? "X" : "i", static_cast<int>(pid), rec.site);
      out += head;
      out += "\"ts\":";
      AppendMicros(&out, HopKindCloses(rec.kind) ? rec.at - rec.dur : rec.at);
      if (rec.dur > 0) {
        out += ",\"dur\":";
        AppendMicros(&out, rec.dur);
      } else {
        out += ",\"s\":\"t\"";  // instant scope: thread
      }
      out += ",\"name\":\"";
      out += HopKindName(rec.kind);
      if (rec.detail != nullptr) {
        out += ':';
        out += rec.detail;
      }
      const uint64_t flow_id =
          rec.flow != 0 ? cap->flows[rec.flow - 1].id : 0;
      out += "\",\"cat\":\"telemetry\",\"args\":{\"flow\":";
      char num[48];
      std::snprintf(num, sizeof(num), "%" PRIu64, flow_id);
      out += num;
      if (rec.value != 0) {
        std::snprintf(num, sizeof(num), ",\"value\":%" PRId64, rec.value);
        out += num;
      }
      if (rec.recirc != 0) {
        std::snprintf(num, sizeof(num), ",\"recirc\":%u", rec.recirc);
        out += num;
      }
      if (rec.drop != 0) {
        out += ",\"drop\":\"";
        out += sim::DropReasonName(static_cast<sim::DropReason>(rec.drop - 1));
        out += '"';
      }
      out += "}}";
    }
  }
  out += "\n]}\n";
  return out;
}

void RequestSummary::AddHop(std::string_view kind, SimTime dur) {
  if (dur <= 0 || kind == HopKindName(HopKind::kClientRx) ||
      kind == HopKindName(HopKind::kTimeout))
    return;
  for (auto& [name, sum] : hops) {
    if (name == kind) {
      sum += dur;
      return;
    }
  }
  hops.emplace_back(kind, dur);
}

std::string FormatHopBreakdown(const std::vector<RequestSummary>& summaries) {
  struct Agg {
    std::string name;
    uint64_t count = 0;
    SimTime min = 0;
    SimTime max = 0;
    SimTime sum = 0;
  };
  Agg total{"request (end-to-end)"};
  std::vector<Agg> hops;
  auto fold = [](Agg& a, SimTime d) {
    if (a.count == 0 || d < a.min) a.min = d;
    if (d > a.max) a.max = d;
    a.sum += d;
    ++a.count;
  };
  for (const RequestSummary& s : summaries) {
    if (s.total > 0) fold(total, s.total);
    for (const auto& [name, dur] : s.hops) {
      auto it = std::find_if(hops.begin(), hops.end(),
                             [&](const Agg& a) { return a.name == name; });
      if (it == hops.end()) {
        hops.push_back(Agg{name});
        it = hops.end() - 1;
      }
      fold(*it, dur);
    }
  }

  std::string out;
  char line[160];
  std::snprintf(line, sizeof(line), "%-24s %10s %12s %12s %12s\n", "hop",
                "requests", "min_us", "mean_us", "max_us");
  out += line;
  auto row = [&](const Agg& a) {
    if (a.count == 0) return;
    std::snprintf(line, sizeof(line), "%-24s %10llu %12.3f %12.3f %12.3f\n",
                  a.name.c_str(), static_cast<unsigned long long>(a.count),
                  static_cast<double>(a.min) / 1e3,
                  static_cast<double>(a.sum) / static_cast<double>(a.count) /
                      1e3,
                  static_cast<double>(a.max) / 1e3);
    out += line;
  };
  row(total);
  for (const Agg& a : hops) row(a);
  return out;
}

}  // namespace orbit::telemetry

#include "metrics.h"

#include <fstream>
#include <map>
#include <sstream>

#include "harness/json.h"

namespace perfbench {

namespace {

struct Target {
  const char* moves;
  const char* on;
};

// Per-layer metric -> the e2e metric it should move, and where.
const std::map<std::string, Target>& Targets() {
  static const char* kHot = "orbit_hot_read";
  static const char* kUni = "netcache_uniform_rw";
  static const char* kFab = "fabric_rw_verified";
  static const char* kSat = "orbit_hot_read,netcache_uniform_rw";
  static const char* kAll = "all";
  static const std::map<std::string, Target> targets = {
      {"sim.events", {"point_wall_s", kHot}},
      {"sim.events_per_req", {"point_wall_s", kHot}},
      {"sim.ns_per_event", {"point_wall_s", kHot}},
      {"sim.queue_ns_per_op", {"point_wall_s", kHot}},
      {"sim.link_ns_per_pkt",
       {"point_wall_s", "netcache_uniform_rw,fabric_rw_verified"}},
      {"rmt.switch_pkts", {"point_wall_s", kHot}},
      {"rmt.recirc_passes", {"point_wall_s", kHot}},
      {"rmt.recirc_share", {"point_wall_s", kHot}},
      {"rmt.forward_ns_per_pkt", {"point_wall_s", kAll}},
      {"orbitcache.cp_pass_ns", {"point_wall_s", kHot}},
      {"orbitcache.req_table_ns_per_op", {"point_wall_s", kHot}},
      {"orbitcache.hit_ratio", {"sim_rx_mrps,sim_read_p999_us", kHot}},
      {"orbitcache.overflow_ratio", {"sim_rx_mrps,sim_read_p999_us", kHot}},
      {"orbitcache.cp_waste_ratio", {"sim_rx_mrps,sim_read_p999_us", kFab}},
      {"netcache.ingress_ns_per_pkt", {"point_wall_s", kUni}},
      {"netcache.hit_ratio", {"sim_rx_mrps", kUni}},
      {"apps.client_reply_ns", {"point_wall_s", kUni}},
      {"apps.server_req_ns", {"point_wall_s", kUni}},
      {"apps.replies", {"sim_rx_mrps", kAll}},
      {"apps.timeouts", {"sim_rx_mrps", kAll}},
      {"apps.retransmissions", {"sim_rx_mrps", kAll}},
      {"apps.write_p99_us", {"", "netcache_uniform_rw,fabric_rw_verified"}},
      {"kv.get_ns", {"point_wall_s,peak_rss_mb", kUni}},
      {"kv.put_ns", {"point_wall_s,peak_rss_mb", kUni}},
      {"kv.ops", {"point_wall_s", kUni}},
      {"workload.next_ns", {"setup_s,point_wall_s", kAll}},
      {"workload.countmin_ns", {"point_wall_s", kFab}},
      {"stats.hist_record_ns", {"point_wall_s", kAll}},
      {"fabric.switch_pkts_per_req", {"point_wall_s", kFab}},
      {"verify.replies_checked", {"", kFab}},
      {"verify.overhead_pct", {"point_wall_s", kFab}},
      {"telemetry.overhead_pct", {"", kAll}},
      {"harness.sat_runs", {"point_wall_s", kSat}},
      {"layers.explained_pct", {"", kAll}},
  };
  return targets;
}

std::string Field(const orbit::harness::JsonValue& v, const char* key) {
  const orbit::harness::JsonValue* f = v.Find(key);
  return f != nullptr ? f->AsString() : "";
}

bool ReadMetrics(const orbit::harness::JsonValue& doc, const char* key,
                 std::vector<MetricInfo>* out, std::string* error) {
  const orbit::harness::JsonValue* list = doc.Find(key);
  if (list == nullptr || !list->is_array()) {
    *error = std::string("no \"") + key + "\" list";
    return false;
  }
  for (const orbit::harness::JsonValue& v : list->array()) {
    MetricInfo info{Field(v, "name"), Field(v, "unit"), Field(v, "better"),
                    "", ""};
    const auto it = Targets().find(info.name);
    if (it != Targets().end()) {
      info.moves = it->second.moves;
      info.on = it->second.on;
    }
    out->push_back(std::move(info));
  }
  return true;
}

}  // namespace

bool LoadCatalogue(const std::string& path, Catalogue* out,
                   std::string* error) {
  std::ifstream in(path);
  if (!in) {
    *error = "cannot read " + path;
    return false;
  }
  std::stringstream text;
  text << in.rdbuf();
  orbit::harness::JsonValue doc;
  if (!orbit::harness::ParseJson(text.str(), &doc, error)) {
    *error = path + ": " + *error;
    return false;
  }
  const orbit::harness::JsonValue* workloads = doc.Find("workloads");
  if (workloads == nullptr || !workloads->is_array()) {
    *error = path + ": no \"workloads\" list";
    return false;
  }
  *out = Catalogue{};
  for (const orbit::harness::JsonValue& v : workloads->array())
    out->workloads.push_back({Field(v, "name"), Field(v, "why")});
  if (!ReadMetrics(doc, "end_to_end", &out->end_to_end, error) ||
      !ReadMetrics(doc, "per_layer", &out->per_layer, error)) {
    *error = path + ": " + *error;
    return false;
  }
  return true;
}

}  // namespace perfbench

#include "mesh/stats_plane.h"

#include <cstdio>

#include <deque>
#include <fstream>

#include "obs/json.h"
#include "obs/metrics.h"

namespace cim::mesh {

std::size_t stats_parent(const isc::Topology& topo, std::size_t node) {
  if (node == 0) return isc::Topology::npos;
  // BFS from node 0; in a tree the first edge that reaches `node` is the
  // unique path toward the root.
  std::vector<std::size_t> parent(topo.nodes, isc::Topology::npos);
  std::vector<bool> seen(topo.nodes, false);
  std::deque<std::size_t> frontier{0};
  seen[0] = true;
  while (!frontier.empty()) {
    const std::size_t at = frontier.front();
    frontier.pop_front();
    for (std::size_t nb : topo.neighbors(at)) {
      if (seen[nb]) continue;
      seen[nb] = true;
      parent[nb] = at;
      if (nb == node) return at;
      frontier.push_back(nb);
    }
  }
  return isc::Topology::npos;
}

void FedAggregator::fold(const net::wire::StatsFrame& frame) {
  ++folded_;
  auto it = latest_.find(frame.origin);
  if (it != latest_.end() && it->second.t_ns > frame.t_ns) return;
  latest_[frame.origin] = frame;
}

std::vector<std::uint64_t> FedAggregator::origins() const {
  std::vector<std::uint64_t> out;
  out.reserve(latest_.size());
  for (const auto& [origin, frame] : latest_) out.push_back(origin);
  return out;
}

std::uint64_t FedAggregator::frames_folded() const {
  return folded_;
}

bool FedAggregator::write_json(const std::string& path) const {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream os(tmp, std::ios::trunc);
    if (!os) return false;
    obs::JsonWriter w(os);
    w.begin_object();
    w.kv("schema", "cim.metrics.v1");
    w.kv("v", obs::kMetricsSchemaVersion);
    w.key("meta");
    w.begin_object();
    w.kv("schema_version", obs::kMetricsSchemaVersion);
#if defined(CIM_GIT_SHA)
    w.kv("git_sha", CIM_GIT_SHA);
#else
    w.kv("git_sha", "unknown");
#endif
    w.kv("kind", "federation");
    w.end_object();
    w.key("metrics");
    w.begin_array();
    auto gauge = [&](const std::string& name, std::int64_t v) {
      w.begin_object();
      w.kv("name", name);
      w.kv("kind", "gauge");
      w.kv("value", v);
      w.end_object();
    };
    gauge("fed.nodes", static_cast<std::int64_t>(latest_.size()));
    for (const auto& [origin, frame] : latest_) {
      const std::string p = "fed.node." + std::to_string(origin) + ".";
      gauge(p + "t_ns", static_cast<std::int64_t>(frame.t_ns));
      for (const auto& [key, value] : frame.entries) gauge(p + key, value);
    }
    w.end_array();
    w.end_object();
    os << '\n';
    if (!os) return false;
  }
  return std::rename(tmp.c_str(), path.c_str()) == 0;
}

}  // namespace cim::mesh

// cim_top: live federation health view (docs/OBSERVABILITY.md "cim_top").
//
//   cim_top --file fed.json [--interval MS]   refreshing terminal view
//   cim_top --file fed.json --once            render one frame and exit
//
// Node 0 aggregates every node's StatsFrame into one federation metrics
// snapshot and atomically rewrites it each stats cadence tick
// (`cim_bridge --fed-metrics fed.json`); cim_top tails that file — the
// rename guarantees a reader never sees a torn document, so "connect to
// node 0" is just "share its snapshot path". Per (node, peer) link row:
// link state, replay-journal depth, heartbeat misses, reconnects,
// sent/delivered pair counts, best heartbeat RTT and the estimated clock
// offset; per-node msgs/sec is derived by differencing the
// delivered totals of successive snapshots over their sample-time delta.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "obs/trace_read.h"
#include "stats/table.h"

namespace {

using cim::obs::JsonValue;

int usage() {
  std::cerr << "usage: cim_top --file fed.json [--interval MS] [--once]\n"
               "Tails the federation metrics snapshot node 0 refreshes"
               " (cim_bridge --fed-metrics).\n";
  return 2;
}

/// One parsed snapshot: node -> flat metric key -> value, plus the sample
/// time each node stamped its frame with.
struct Snapshot {
  std::map<std::uint64_t, std::map<std::string, std::int64_t>> nodes;
  bool ok = false;
};

Snapshot parse_snapshot(const std::string& text) {
  Snapshot snap;
  JsonValue doc;
  if (!cim::obs::parse_json(text, doc)) return snap;
  const JsonValue* metrics = doc.find("metrics");
  if (metrics == nullptr || metrics->kind != JsonValue::Kind::kArray)
    return snap;
  for (const JsonValue& m : metrics->items) {
    const JsonValue* name = m.find("name");
    const JsonValue* value = m.find("value");
    if (name == nullptr || name->kind != JsonValue::Kind::kString ||
        value == nullptr || !value->is_number()) {
      continue;
    }
    std::string_view sv = name->s;
    const std::string_view pre = "fed.node.";
    if (sv.substr(0, pre.size()) != pre) continue;
    sv.remove_prefix(pre.size());
    const std::size_t dot = sv.find('.');
    if (dot == std::string_view::npos) continue;
    std::uint64_t node = 0;
    bool num = !sv.substr(0, dot).empty();
    for (char c : sv.substr(0, dot)) {
      if (c < '0' || c > '9') { num = false; break; }
      node = node * 10 + static_cast<std::uint64_t>(c - '0');
    }
    if (!num) continue;
    snap.nodes[node][std::string(sv.substr(dot + 1))] = value->as_int();
  }
  snap.ok = !snap.nodes.empty();
  return snap;
}

std::string fmt_us(std::int64_t ns) {
  if (ns < 0) return "-";  // no sample yet (rtt_best_ns starts at -1)
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f", static_cast<double>(ns) / 1000.0);
  return buf;
}

std::string fmt_us_signed(std::int64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f", static_cast<double>(ns) / 1000.0);
  return buf;
}

/// Render one frame. `prev` (if ok) supplies the rate baseline.
void render(const Snapshot& snap, const Snapshot& prev, std::ostream& os) {
  cim::stats::Table table({"node", "gen", "peer", "link", "jrnl", "hb_miss",
                           "reconn", "sent", "delivered", "rtt_us",
                           "offset_us", "msgs_s"});
  for (const auto& [node, kv] : snap.nodes) {
    auto get = [&kv](const std::string& key, std::int64_t def = 0) {
      const auto it = kv.find(key);
      return it != kv.end() ? it->second : def;
    };
    // Per-node delivery rate across snapshots: sum of delivered over every
    // peer link, differenced against the previous frame's sum.
    std::string rate = "-";
    if (prev.ok) {
      const auto pit = prev.nodes.find(node);
      if (pit != prev.nodes.end()) {
        std::int64_t now_sum = 0, prev_sum = 0;
        for (const auto& [key, v] : kv)
          if (key.size() > 16 &&
              key.compare(key.size() - 16, 16, ".pairs_delivered") == 0)
            now_sum += v;
        for (const auto& [key, v] : pit->second)
          if (key.size() > 16 &&
              key.compare(key.size() - 16, 16, ".pairs_delivered") == 0)
            prev_sum += v;
        const std::int64_t dt_ns = get("t_ns") - [&] {
          const auto it = pit->second.find("t_ns");
          return it != pit->second.end() ? it->second : std::int64_t{0};
        }();
        if (dt_ns > 0) {
          char buf[32];
          std::snprintf(buf, sizeof(buf), "%.1f",
                        static_cast<double>(now_sum - prev_sum) * 1e9 /
                            static_cast<double>(dt_ns));
          rate = buf;
        }
      }
    }
    // One row per peer.<id>.* group.
    std::map<std::uint64_t, bool> peers;
    for (const auto& [key, v] : kv) {
      if (key.rfind("peer.", 0) != 0) continue;
      const std::size_t dot = key.find('.', 5);
      if (dot == std::string::npos) continue;
      std::uint64_t peer = 0;
      bool num = dot > 5;
      for (std::size_t i = 5; i < dot; ++i) {
        if (key[i] < '0' || key[i] > '9') { num = false; break; }
        peer = peer * 10 + static_cast<std::uint64_t>(key[i] - '0');
      }
      if (num) peers[peer] = true;
    }
    bool first = true;
    for (const auto& [peer, unused] : peers) {
      const std::string p = "peer." + std::to_string(peer) + ".";
      table.add_row(first ? std::to_string(node) : "",
                    first ? std::to_string(get("generation")) : "", peer,
                    get(p + "down") != 0 ? "DOWN" : "up",
                    get(p + "journal_depth"), get(p + "hb_miss"),
                    get(p + "resumes"), get(p + "pairs_sent"),
                    get(p + "pairs_delivered"),
                    fmt_us(get(p + "rtt_ns", -1)),
                    fmt_us_signed(get(p + "offset_ns")),
                    first ? rate : "-");
      first = false;
    }
    if (peers.empty()) {
      table.add_row(std::to_string(node), std::to_string(get("generation")),
                    "-", "-", "-", "-", "-", "-", "-", "-", "-", rate);
    }
  }
  table.print(os);
}

}  // namespace

int main(int argc, char** argv) {
  std::string path;
  int interval_ms = 1000;
  bool once = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (arg == "--file" && (v = next())) {
      path = v;
    } else if (arg == "--interval" && (v = next())) {
      interval_ms = std::stoi(v);
    } else if (arg == "--once") {
      once = true;
    } else {
      return usage();
    }
  }
  if (path.empty()) return usage();

  Snapshot prev;
  int misses = 0;
  while (true) {
    std::ifstream in(path);
    Snapshot snap;
    if (in) {
      std::ostringstream text;
      text << in.rdbuf();
      snap = parse_snapshot(text.str());
    }
    if (!snap.ok) {
      if (once || ++misses > 50) {
        std::cerr << "cim_top: no usable snapshot at " << path
                  << " (is node 0 running with --fed-metrics?)\n";
        return 1;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
      continue;
    }
    misses = 0;
    if (!once) std::cout << "\033[2J\033[H";  // clear + home
    std::cout << "federation nodes: " << snap.nodes.size() << "   ("
              << path << ")\n\n";
    render(snap, prev, std::cout);
    std::cout.flush();
    if (once) return 0;
    prev = std::move(snap);
    std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
  }
}

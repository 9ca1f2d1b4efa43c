// gkfs-mon — cluster health & rate aggregator for GekkoFS.
//
// Where gkfs-top renders per-node tables for a human, gkfs-mon answers
// the operator/CI questions: is every daemon alive, and what are the
// cluster-wide rates right now? Each iteration it
//  1) drives one synchronous heartbeat round through HeartbeatMonitor
//     (misses accumulate deterministically — N iterations = N probes,
//     which is what makes --alert usable in CI),
//  2) drains every reachable daemon's metric_history rings and derives
//     per-second rates from the newest sample pairs (daemon-side
//     clocks, so daemon restarts read as rate 0, not negative spikes),
//  3) remembers each reachable daemon's newest flight-recorder event,
//     so a node that later goes dead still shows what it was last seen
//     doing (the black box survives in the monitor's memory even when
//     the daemon itself is gone),
//  4) renders a table, or a JSON document with --json.
//
//   gkfs-mon <hostfile> [interval-seconds] [iterations] [--json]
//            [--alert <rule>]... [--suspect-after N] [--dead-after N]
//            [--probe-timeout-ms T] [--transport auto|uds|tcp]
//
// interval defaults to 1 s (0 = back-to-back), iterations to 0 = run
// until interrupted (--alert or --json usually pair with a finite
// count).
//
// --alert fires on the FINAL iteration's cluster values; any fired
// rule exits 3 (CI gates on the exit code). Rule grammar:
//   <key><op><value>   op ∈ {>,>=,<,<=,==,!=}
// keys: alive, suspect, dead, ops_per_sec, retries_per_sec,
//       slow_ops_per_sec, fd_cache_miss_per_sec
// e.g. --alert 'dead>0' --alert 'retries_per_sec>100'
#include <charconv>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/flight_recorder.h"
#include "common/health.h"
#include "common/metrics_history.h"
#include "net/stream_fabric.h"
#include "proto/messages.h"
#include "rpc/engine.h"
#include "rpc/heartbeat.h"

namespace {

using gekko::metrics::SamplePoint;
using gekko::metrics::rate_per_sec;

bool parse_u32(const char* arg, std::uint32_t* out) {
  const char* last = arg + std::strlen(arg);
  const auto [ptr, ec] = std::from_chars(arg, last, *out);
  return ec == std::errc() && ptr == last && last != arg;
}

// ---------- alert rules ----------

struct AlertRule {
  std::string key;
  std::string op;  // > >= < <= == !=
  double threshold = 0.0;
  std::string text;  // original, for reporting

  [[nodiscard]] bool fires(double v) const {
    if (op == ">") return v > threshold;
    if (op == ">=") return v >= threshold;
    if (op == "<") return v < threshold;
    if (op == "<=") return v <= threshold;
    if (op == "==") return v == threshold;
    if (op == "!=") return v != threshold;
    return false;
  }
};

std::optional<AlertRule> parse_alert(const std::string& text) {
  // Longest operators first so ">=" never parses as ">" + "=0".
  static const char* kOps[] = {">=", "<=", "==", "!=", ">", "<"};
  for (const char* op : kOps) {
    const std::size_t pos = text.find(op);
    if (pos == std::string::npos || pos == 0) continue;
    AlertRule rule;
    rule.key = text.substr(0, pos);
    rule.op = op;
    rule.text = text;
    const std::string value = text.substr(pos + std::strlen(op));
    char* end = nullptr;
    rule.threshold = std::strtod(value.c_str(), &end);
    if (end == value.c_str() || *end != '\0') return std::nullopt;
    return rule;
  }
  return std::nullopt;
}

// ---------- rate extraction ----------

/// Newest sample of `family` in one daemon's drained history.
std::optional<SamplePoint> newest_sample(
    const gekko::proto::MetricHistoryResponse& hist,
    const std::string& family) {
  for (const auto& f : hist.families) {
    if (f.name != family) continue;
    if (f.samples.empty()) return std::nullopt;
    return SamplePoint{f.samples.back().first, f.samples.back().second};
  }
  return std::nullopt;
}

/// Per-second rate of `family` on one daemon: from the ring's newest
/// sample pair when the sampler has two, else from this tool's
/// previous poll (`prev`, updated in place) — so rates work even with
/// GEKKO_SAMPLE_MS=0 as long as gkfs-mon itself polls twice.
double family_rate(const gekko::proto::MetricHistoryResponse& hist,
                   const std::string& family,
                   std::map<std::string, SamplePoint>& prev) {
  double rate = 0.0;
  std::optional<SamplePoint> latest;
  for (const auto& f : hist.families) {
    if (f.name != family) continue;
    if (!f.samples.empty()) {
      latest = SamplePoint{f.samples.back().first, f.samples.back().second};
    }
    if (f.samples.size() >= 2) {
      const auto& a = f.samples[f.samples.size() - 2];
      const auto& b = f.samples.back();
      rate = rate_per_sec(SamplePoint{a.first, a.second},
                          SamplePoint{b.first, b.second});
    }
    break;
  }
  if (latest.has_value()) {
    if (rate == 0.0) {
      if (auto it = prev.find(family); it != prev.end()) {
        rate = rate_per_sec(it->second, *latest);
      }
    }
    prev[family] = *latest;
  }
  return rate;
}

// ---------- last-seen flight events ----------

/// One remembered flight event per daemon: what the node was doing the
/// last time gkfs-mon could still talk to it. Kept across iterations so
/// a dead node's row can answer "last seen doing X".
struct LastSeen {
  gekko::flight::Event event;
  bool valid = false;
};

/// "kv.compaction" / "client.op(creat)" — same naming the flight
/// recorder uses, compact enough for a table cell.
std::string describe_event(const gekko::flight::Event& e) {
  std::string out = gekko::flight::subsys_name(e.subsys);
  out += '.';
  out += gekko::flight::event_name(e.subsys, e.code);
  if (e.subsys == static_cast<std::uint8_t>(gekko::flight::Subsys::client) &&
      e.code == gekko::flight::ev::client_op) {
    char tag[9];
    gekko::flight::untag(e.a0, tag);
    out += '(';
    out += tag;
    out += ')';
  }
  return out;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const char* hostfile = nullptr;
  std::uint32_t interval = 1;
  std::uint32_t iterations = 0;
  std::uint32_t suspect_after = 2;
  std::uint32_t dead_after = 4;
  std::uint32_t probe_timeout_ms = 250;
  bool json = false;
  std::vector<AlertRule> alerts;
  gekko::net::Transport transport = gekko::net::Transport::autodetect;
  std::uint32_t positional = 0;
  bool bad_args = false;
  for (int i = 1; i < argc && !bad_args; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      json = true;
    } else if (arg == "--alert" && i + 1 < argc) {
      auto rule = parse_alert(argv[++i]);
      if (!rule.has_value()) {
        std::fprintf(stderr, "gkfs-mon: bad --alert rule '%s'\n", argv[i]);
        return 2;
      }
      alerts.push_back(std::move(*rule));
    } else if (arg == "--suspect-after" && i + 1 < argc &&
               parse_u32(argv[i + 1], &suspect_after)) {
      ++i;
    } else if (arg == "--dead-after" && i + 1 < argc &&
               parse_u32(argv[i + 1], &dead_after)) {
      ++i;
    } else if (arg == "--probe-timeout-ms" && i + 1 < argc &&
               parse_u32(argv[i + 1], &probe_timeout_ms)) {
      ++i;
    } else if (arg == "--transport" && i + 1 < argc) {
      auto parsed = gekko::net::parse_transport(argv[++i]);
      if (!parsed) {
        std::fprintf(stderr, "gkfs-mon: bad --transport value\n");
        return 2;
      }
      transport = *parsed;
    } else if (!arg.empty() && arg[0] == '-') {
      bad_args = true;
    } else if (positional == 0) {
      hostfile = argv[i];
      ++positional;
    } else if (positional == 1 && parse_u32(argv[i], &interval)) {
      ++positional;
    } else if (positional == 2 && parse_u32(argv[i], &iterations)) {
      ++positional;
    } else {
      bad_args = true;
    }
  }
  if (bad_args || hostfile == nullptr) {
    std::fprintf(
        stderr,
        "usage: gkfs-mon <hostfile> [interval-seconds] [iterations] "
        "[--json] [--alert <rule>]... [--suspect-after N] "
        "[--dead-after N] [--probe-timeout-ms T] "
        "[--transport auto|uds|tcp]\n");
    return 2;
  }

  gekko::net::MakeFabricOptions fopts;
  fopts.transport = transport;
  auto fabric = gekko::net::make_fabric(hostfile, fopts);
  if (!fabric) {
    std::fprintf(stderr, "gkfs-mon: fabric: %s\n",
                 fabric.status().to_string().c_str());
    return 1;
  }
  gekko::rpc::EngineOptions eopts;
  eopts.name = "gkfs-mon";
  eopts.rpc_timeout = std::chrono::milliseconds{2000};
  eopts.rpc_name = gekko::proto::rpc_name;
  gekko::rpc::Engine engine(**fabric, eopts);
  const auto daemons = (*fabric)->daemon_ids();

  gekko::rpc::HeartbeatOptions hopts;
  hopts.interval_ms = 0;  // gkfs-mon drives rounds itself
  hopts.probe_timeout = std::chrono::milliseconds{probe_timeout_ms};
  hopts.thresholds = {suspect_after, dead_after};
  gekko::rpc::HeartbeatMonitor monitor(engine, daemons, hopts);

  // Per-daemon previous poll for the sampler-off rate fallback.
  std::map<gekko::net::EndpointId, std::map<std::string, SamplePoint>>
      prev_polls;
  // Per-daemon newest flight event, refreshed while the node is
  // reachable and retained after it dies ("last seen doing X").
  std::map<gekko::net::EndpointId, LastSeen> last_seen;
  static const std::string kFamilies[] = {
      "rpc.requests_handled", "rpc.retries", "trace.slow_ops",
      "storage.fd_cache.misses", "kv.compact.bytes_in",
      "kv.stall.foreground_ms"};
  constexpr std::size_t kNumFamilies =
      sizeof(kFamilies) / sizeof(kFamilies[0]);

  int exit_code = 0;
  for (std::uint32_t iter = 0; iterations == 0 || iter < iterations;
       ++iter) {
    if (iter > 0 && interval > 0) {
      std::this_thread::sleep_for(std::chrono::seconds(interval));
    }
    monitor.probe_now();

    // Drain histories; dead daemons simply contribute nothing.
    struct Row {
      gekko::net::EndpointId node;
      gekko::health::NodeHealth health;
      std::map<std::string, double> rates;
    };
    std::vector<Row> rows;
    double cluster_rate[kNumFamilies] = {};
    gekko::proto::MetricHistoryRequest hist_req{""};
    for (const auto id : daemons) {
      Row row;
      row.node = id;
      row.health = monitor.tracker().health_of(id);
      if (row.health.state != gekko::health::State::dead) {
        auto r = engine.forward(
            id, gekko::proto::to_wire(gekko::proto::RpcId::metric_history),
            hist_req.encode(),
            {}, std::chrono::milliseconds{probe_timeout_ms * 4});
        if (r.is_ok()) {
          auto hist = gekko::proto::MetricHistoryResponse::decode(
              std::string_view(reinterpret_cast<const char*>(r->data()),
                               r->size()));
          if (hist.is_ok()) {
            auto& prev = prev_polls[id];
            for (std::size_t f = 0; f < kNumFamilies; ++f) {
              const double rate = family_rate(*hist, kFamilies[f], prev);
              row.rates[kFamilies[f]] = rate;
              cluster_rate[f] += rate;
            }
          }
        }
        // Remember the node's newest flight event while we still can;
        // this is the forensic breadcrumb shown once the node is dead.
        auto fr = engine.forward(
            id, gekko::proto::to_wire(gekko::proto::RpcId::flight_dump),
            {}, {}, std::chrono::milliseconds{probe_timeout_ms * 4});
        if (fr.is_ok()) {
          auto dump = gekko::proto::FlightDumpResponse::decode(
              std::string_view(reinterpret_cast<const char*>(fr->data()),
                               fr->size()));
          if (dump.is_ok()) {
            const gekko::flight::Event* newest = nullptr;
            for (const auto& e : dump->events) {
              if (newest == nullptr || e.ts_ns >= newest->ts_ns) {
                newest = &e;
              }
            }
            if (newest != nullptr) {
              last_seen[id] = LastSeen{*newest, true};
            }
          }
        }
      }
      rows.push_back(std::move(row));
    }

    const std::size_t n_alive =
        monitor.tracker().count(gekko::health::State::alive);
    const std::size_t n_suspect =
        monitor.tracker().count(gekko::health::State::suspect);
    const std::size_t n_dead =
        monitor.tracker().count(gekko::health::State::dead);

    std::map<std::string, double> cluster;
    cluster["alive"] = static_cast<double>(n_alive);
    cluster["suspect"] = static_cast<double>(n_suspect);
    cluster["dead"] = static_cast<double>(n_dead);
    cluster["ops_per_sec"] = cluster_rate[0];
    cluster["retries_per_sec"] = cluster_rate[1];
    cluster["slow_ops_per_sec"] = cluster_rate[2];
    cluster["fd_cache_miss_per_sec"] = cluster_rate[3];
    cluster["compact_bytes_per_sec"] = cluster_rate[4];
    cluster["stall_ms_per_sec"] = cluster_rate[5];

    if (json) {
      std::string out = "{\"iteration\":" + std::to_string(iter) +
                        ",\"daemons\":[";
      bool first = true;
      for (const Row& row : rows) {
        if (!first) out += ',';
        first = false;
        out += "{\"node\":" + std::to_string(row.node) + ",\"state\":\"" +
               gekko::health::state_name(row.health.state) +
               "\",\"consecutive_misses\":" +
               std::to_string(row.health.consecutive_misses) +
               ",\"probes\":" + std::to_string(row.health.probes) +
               ",\"transitions\":" + std::to_string(row.health.transitions);
        if (auto ls = last_seen.find(row.node);
            ls != last_seen.end() && ls->second.valid) {
          out += ",\"last_seen\":\"" +
                 json_escape(describe_event(ls->second.event)) + "\"";
        }
        for (const auto& [family, rate] : row.rates) {
          out += ",\"" + json_escape(family) + "\":";
          char buf[32];
          std::snprintf(buf, sizeof(buf), "%.3f", rate);
          out += buf;
        }
        out += '}';
      }
      out += "],\"cluster\":{";
      first = true;
      for (const auto& [key, value] : cluster) {
        if (!first) out += ',';
        first = false;
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.3f", value);
        out += "\"" + key + "\":" + buf;
      }
      out += "}}";
      std::printf("%s\n", out.c_str());
    } else {
      std::printf("%-5s %-8s %7s %7s %10s %9s %8s %9s %11s %9s  %s\n",
                  "node", "state", "misses", "probes", "ops/s", "retry/s",
                  "slow/s", "fdmiss/s", "compactB/s", "stallms/s",
                  "last-seen");
      for (const Row& row : rows) {
        auto rate_of = [&row](const char* family) {
          auto it = row.rates.find(family);
          return it == row.rates.end() ? 0.0 : it->second;
        };
        // The black-box breadcrumb only earns table space on dead
        // rows — for live nodes the rates already say what's going on.
        std::string doing;
        if (row.health.state == gekko::health::State::dead) {
          auto ls = last_seen.find(row.node);
          doing = (ls != last_seen.end() && ls->second.valid)
                      ? "last seen doing " + describe_event(ls->second.event)
                      : "last seen doing ?";
        }
        std::printf("%-5u %-8s %7u %7" PRIu64
                    " %10.1f %9.1f %8.1f %9.1f %11.1f %9.1f  %s\n",
                    row.node, gekko::health::state_name(row.health.state),
                    row.health.consecutive_misses, row.health.probes,
                    rate_of("rpc.requests_handled"), rate_of("rpc.retries"),
                    rate_of("trace.slow_ops"),
                    rate_of("storage.fd_cache.misses"),
                    rate_of("kv.compact.bytes_in"),
                    rate_of("kv.stall.foreground_ms"), doing.c_str());
      }
      std::printf("cluster: alive=%zu suspect=%zu dead=%zu ops/s=%.1f "
                  "retry/s=%.1f slow/s=%.1f fdmiss/s=%.1f "
                  "compactB/s=%.1f stallms/s=%.1f\n",
                  n_alive, n_suspect, n_dead, cluster["ops_per_sec"],
                  cluster["retries_per_sec"], cluster["slow_ops_per_sec"],
                  cluster["fd_cache_miss_per_sec"],
                  cluster["compact_bytes_per_sec"],
                  cluster["stall_ms_per_sec"]);
    }
    std::fflush(stdout);

    // Final iteration: evaluate the alert rules (CI gate).
    const bool last = iterations != 0 && iter + 1 == iterations;
    if (last) {
      for (const AlertRule& rule : alerts) {
        auto it = cluster.find(rule.key);
        if (it == cluster.end()) {
          std::fprintf(stderr, "gkfs-mon: alert '%s': unknown key '%s'\n",
                       rule.text.c_str(), rule.key.c_str());
          exit_code = 2;
          continue;
        }
        if (rule.fires(it->second)) {
          std::fprintf(stderr, "gkfs-mon: ALERT %s (value %.3f)\n",
                       rule.text.c_str(), it->second);
          exit_code = 3;
        }
      }
    }
  }
  return exit_code;
}

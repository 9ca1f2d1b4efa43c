// gkfs-debug — decode the black box: postmortem crash reports and
// live flight-recorder dumps, rendered as a human-readable timeline.
//
//   gkfs-debug <postmortem-file> [--json]
//   gkfs-debug --live <hostfile> [--json]
//
// File mode parses a GEKKO-POSTMORTEM report written by a crashed (or
// SIGUSR2'd) gkfsd: header, backtrace, per-thread held locks, the
// in-flight RPC table, and the flight events correlated by trace id —
// events sharing a trace id are grouped so "what was trace 1a2b doing
// when the daemon died" is one block, not a grep. Live mode broadcasts
// the flight_dump RPC to every daemon in the hostfile and renders the
// merged rings the same way. --json emits a machine-readable document
// with the same content for tooling.
//
// Exit status: 0 on success, 1 on unreachable daemons / unreadable or
// unparseable report, 2 on usage errors.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/flight_recorder.h"
#include "net/stream_fabric.h"
#include "proto/messages.h"
#include "rpc/engine.h"

namespace {

using gekko::flight::Event;
using gekko::flight::Postmortem;

/// JSON string escaping for the --json output (backtrace lines and
/// lock names are free-form text).
std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// One flight event as a human line. The client op's a0 is a packed
/// ASCII tag; everything else renders numerically (a1 is the rpc id
/// for engine events, so resolve its name).
std::string format_event(const Event& e, std::uint64_t t0_ns) {
  char line[256];
  const double ms = (e.ts_ns - t0_ns) / 1e6;
  std::string detail;
  if (e.subsys == static_cast<std::uint8_t>(gekko::flight::Subsys::client)) {
    char tag[9];
    gekko::flight::untag(e.a0, tag);
    detail = std::string("op=") + tag;
  } else {
    char a0[32];
    std::snprintf(a0, sizeof(a0), "a0=%llx",
                  static_cast<unsigned long long>(e.a0));
    detail = a0;
    if (e.subsys ==
        static_cast<std::uint8_t>(gekko::flight::Subsys::engine)) {
      const std::string rpc = gekko::proto::rpc_name(
          static_cast<std::uint16_t>(e.a1));
      detail += " rpc=" + (rpc.empty() ? std::to_string(e.a1) : rpc);
    } else {
      detail += " a1=" + std::to_string(e.a1);
    }
  }
  std::snprintf(line, sizeof(line), "  %+12.3fms t%02u %s.%s %s", ms,
                e.thread, gekko::flight::subsys_name(e.subsys),
                gekko::flight::event_name(e.subsys, e.code), detail.c_str());
  return line;
}

std::string event_json(const Event& e) {
  std::ostringstream os;
  char tag[9];
  gekko::flight::untag(e.a0, tag);
  os << "{\"ts_ns\":" << e.ts_ns << ",\"thread\":" << e.thread
     << ",\"subsys\":\"" << gekko::flight::subsys_name(e.subsys)
     << "\",\"event\":\"" << gekko::flight::event_name(e.subsys, e.code)
     << "\",\"trace_id\":\"" << std::hex << e.trace_id << std::dec
     << "\",\"a0\":" << e.a0 << ",\"a1\":" << e.a1;
  if (e.subsys == static_cast<std::uint8_t>(gekko::flight::Subsys::client)) {
    os << ",\"tag\":\"" << json_escape(tag) << "\"";
  }
  os << "}";
  return os.str();
}

/// Trace-id-correlated timeline: untraced events first (background
/// activity), then one block per trace id, oldest trace first.
void print_timeline(const std::vector<Event>& events) {
  if (events.empty()) {
    std::printf("flight: no events recorded\n");
    return;
  }
  std::uint64_t t0 = events.front().ts_ns;
  for (const Event& e : events) t0 = std::min(t0, e.ts_ns);

  std::vector<const Event*> untraced;
  std::map<std::uint64_t, std::vector<const Event*>> by_trace;
  std::map<std::uint64_t, std::uint64_t> first_seen;  // trace -> min ts
  for (const Event& e : events) {
    if (e.trace_id == 0) {
      untraced.push_back(&e);
    } else {
      by_trace[e.trace_id].push_back(&e);
      auto [it, inserted] = first_seen.try_emplace(e.trace_id, e.ts_ns);
      if (!inserted && e.ts_ns < it->second) it->second = e.ts_ns;
    }
  }
  if (!untraced.empty()) {
    std::printf("background (no trace):\n");
    for (const Event* e : untraced) {
      std::printf("%s\n", format_event(*e, t0).c_str());
    }
  }
  std::vector<std::pair<std::uint64_t, std::uint64_t>> order;  // (ts, id)
  order.reserve(first_seen.size());
  for (const auto& [id, ts] : first_seen) order.emplace_back(ts, id);
  std::sort(order.begin(), order.end());
  for (const auto& [ts, id] : order) {
    std::printf("trace %llx:\n", static_cast<unsigned long long>(id));
    for (const Event* e : by_trace[id]) {
      std::printf("%s\n", format_event(*e, t0).c_str());
    }
  }
}

int run_file_mode(const char* path, bool json) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "gkfs-debug: cannot read %s\n", path);
    return 1;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();
  auto pm = gekko::flight::parse_postmortem(text);
  if (!pm) {
    std::fprintf(stderr, "gkfs-debug: %s: %s\n", path,
                 pm.status().to_string().c_str());
    return 1;
  }

  if (json) {
    std::ostringstream os;
    os << "{\"signal\":" << pm->signal << ",\"signal_name\":\""
       << json_escape(pm->signal_name) << "\",\"node\":" << pm->node_id
       << ",\"pid\":" << pm->pid << ",\"time_ns\":" << pm->capture_ns
       << ",\"build\":\"" << json_escape(pm->build) << "\",\"complete\":"
       << (pm->complete ? "true" : "false");
    os << ",\"backtrace\":[";
    for (std::size_t i = 0; i < pm->backtrace.size(); ++i) {
      os << (i != 0 ? "," : "") << "\"" << json_escape(pm->backtrace[i])
         << "\"";
    }
    os << "],\"locks\":[";
    for (std::size_t i = 0; i < pm->locks.size(); ++i) {
      const auto& l = pm->locks[i];
      os << (i != 0 ? "," : "") << "{\"thread\":" << l.thread
         << ",\"name\":\"" << json_escape(l.name)
         << "\",\"rank\":" << l.rank << "}";
    }
    os << "],\"inflight\":[";
    for (std::size_t i = 0; i < pm->inflight.size(); ++i) {
      const auto& r = pm->inflight[i];
      const std::string rpc = gekko::proto::rpc_name(r.rpc_id);
      os << (i != 0 ? "," : "") << "{\"seq\":" << r.seq << ",\"rpc\":\""
         << (rpc.empty() ? std::to_string(r.rpc_id) : rpc)
         << "\",\"dest\":" << r.dest << ",\"trace_id\":\"" << std::hex
         << r.trace_id << std::dec << "\",\"start_ns\":" << r.start_ns
         << "}";
    }
    os << "],\"events\":[";
    for (std::size_t i = 0; i < pm->events.size(); ++i) {
      os << (i != 0 ? "," : "") << event_json(pm->events[i]);
    }
    os << "],\"log_tail\":[";
    for (std::size_t i = 0; i < pm->log_tail.size(); ++i) {
      os << (i != 0 ? "," : "") << "\"" << json_escape(pm->log_tail[i])
         << "\"";
    }
    os << "]}";
    std::printf("%s\n", os.str().c_str());
    return 0;
  }

  if (pm->signal != 0) {
    std::printf("postmortem: node %u pid %llu died with signal %d (%s)%s\n",
                pm->node_id, static_cast<unsigned long long>(pm->pid),
                pm->signal, pm->signal_name.c_str(),
                pm->complete ? "" : " [TRUNCATED REPORT]");
  } else {
    std::printf("live report: node %u pid %llu%s\n", pm->node_id,
                static_cast<unsigned long long>(pm->pid),
                pm->complete ? "" : " [TRUNCATED REPORT]");
  }
  if (!pm->build.empty()) std::printf("build: %s\n", pm->build.c_str());
  if (!pm->backtrace.empty()) {
    std::printf("\nbacktrace (%zu frames):\n", pm->backtrace.size());
    for (const auto& f : pm->backtrace) std::printf("  %s\n", f.c_str());
  }
  if (!pm->locks.empty()) {
    std::printf("\nheld locks:\n");
    for (const auto& l : pm->locks) {
      std::printf("  t%02u %s (rank %d)\n", l.thread, l.name.c_str(),
                  l.rank);
    }
  }
  if (!pm->inflight.empty()) {
    std::printf("\nin-flight rpcs:\n");
    for (const auto& r : pm->inflight) {
      const std::string rpc = gekko::proto::rpc_name(r.rpc_id);
      std::printf("  seq %llu %s -> node %u trace=%llx (begun %llu ns)\n",
                  static_cast<unsigned long long>(r.seq),
                  rpc.empty() ? std::to_string(r.rpc_id).c_str()
                              : rpc.c_str(),
                  r.dest, static_cast<unsigned long long>(r.trace_id),
                  static_cast<unsigned long long>(r.start_ns));
    }
  }
  std::printf("\nflight timeline (%zu events):\n", pm->events.size());
  print_timeline(pm->events);
  if (!pm->log_tail.empty()) {
    std::printf("\nlog tail (%zu lines):\n", pm->log_tail.size());
    for (const auto& l : pm->log_tail) std::printf("  %s\n", l.c_str());
  }
  return 0;
}

int run_live_mode(const char* hostfile, bool json) {
  auto fabric = gekko::net::make_fabric(hostfile, {});
  if (!fabric) {
    std::fprintf(stderr, "gkfs-debug: fabric: %s\n",
                 fabric.status().to_string().c_str());
    return 1;
  }
  gekko::rpc::EngineOptions eopts;
  eopts.name = "gkfs-debug";
  eopts.rpc_timeout = std::chrono::milliseconds{2000};
  eopts.rpc_name = gekko::proto::rpc_name;
  gekko::rpc::Engine engine(**fabric, eopts);

  std::vector<Event> merged;
  std::size_t reachable = 0;
  bool first = true;
  if (json) std::printf("{\"nodes\":[");
  for (const auto id : (*fabric)->daemon_ids()) {
    auto r = engine.forward(
        id, gekko::proto::to_wire(gekko::proto::RpcId::flight_dump), {});
    if (!r) {
      std::fprintf(stderr, "gkfs-debug: node %u down (%s)\n", id,
                   r.status().to_string().c_str());
      continue;
    }
    auto resp = gekko::proto::FlightDumpResponse::decode(
        std::string_view(reinterpret_cast<const char*>(r->data()),
                         r->size()));
    if (!resp) {
      std::fprintf(stderr, "gkfs-debug: node %u bad response\n", id);
      continue;
    }
    ++reachable;
    const std::uint64_t dropped = resp->recorded > resp->events.size()
                                      ? resp->recorded - resp->events.size()
                                      : 0;
    if (json) {
      std::printf("%s{\"node\":%u,\"recorded\":%llu,\"dropped\":%llu,"
                  "\"events\":[",
                  first ? "" : ",", resp->node_id,
                  static_cast<unsigned long long>(resp->recorded),
                  static_cast<unsigned long long>(dropped));
      for (std::size_t i = 0; i < resp->events.size(); ++i) {
        std::printf("%s%s", i != 0 ? "," : "",
                    event_json(resp->events[i]).c_str());
      }
      std::printf("]}");
      first = false;
    } else {
      std::printf("node %u: %zu events (%llu recorded, %llu dropped to "
                  "wrap)\n",
                  resp->node_id, resp->events.size(),
                  static_cast<unsigned long long>(resp->recorded),
                  static_cast<unsigned long long>(dropped));
      merged.insert(merged.end(), resp->events.begin(), resp->events.end());
    }
  }
  if (json) std::printf("]}\n");
  if (reachable == 0) {
    std::fprintf(stderr, "gkfs-debug: no daemon reachable\n");
    return 1;
  }
  if (!json) {
    std::sort(merged.begin(), merged.end(),
              [](const Event& a, const Event& b) { return a.ts_ns < b.ts_ns; });
    print_timeline(merged);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const char* target = nullptr;
  bool live = false;
  bool json = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      json = true;
    } else if (arg == "--live") {
      live = true;
    } else if (target == nullptr) {
      target = argv[i];
    } else {
      target = nullptr;
      break;
    }
  }
  if (target == nullptr) {
    std::fprintf(stderr,
                 "usage: gkfs-debug <postmortem-file> [--json]\n"
                 "       gkfs-debug --live <hostfile> [--json]\n");
    return 2;
  }
  return live ? run_live_mode(target, json) : run_file_mode(target, json);
}

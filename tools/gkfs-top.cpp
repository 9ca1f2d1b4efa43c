// gkfs-top — live per-node telemetry for a running GekkoFS deployment.
//
// Polls every daemon in the hostfile over the daemon_stat RPC and
// renders one table row per node: total ops served, per-interval RATES
// since the previous poll (ops/s, retries/s, timeouts/s, MB/s written
// and read), p50/p99 service latency of the busiest op, in-flight
// requests, and metadata volume. Rates are computed with the
// metrics_history helpers against the DAEMON's snapshot clock
// (captured_ns), so a daemon restart renders as rate 0, never as a
// negative spike. Unreachable daemons render as "down" instead of
// aborting the tool — exactly the situation an operator runs gkfs-top
// to diagnose.
//
//   gkfs-top <hostfile> [interval-seconds] [iterations]
//   gkfs-top <hostfile> --traces [K] [--chrome-trace out.json]
//
// interval-seconds defaults to 2 (0 = poll back-to-back); iterations
// defaults to 0 = run until interrupted. --traces switches to a
// one-shot trace view: drain every daemon's span ring (trace_dump),
// assemble cross-node causal trees, and print the K (default 10)
// slowest by end-to-end latency; --chrome-trace additionally writes
// Chrome Trace Event JSON for about://tracing / Perfetto.
#include <charconv>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "common/metrics_history.h"
#include "common/trace.h"
#include "net/stream_fabric.h"
#include "proto/messages.h"
#include "rpc/engine.h"

namespace {

bool parse_u32(const char* arg, std::uint32_t* out) {
  const char* last = arg + std::strlen(arg);
  const auto [ptr, ec] = std::from_chars(arg, last, *out);
  return ec == std::errc() && ptr == last && last != arg;
}

bool starts_with(const std::string& s, std::string_view prefix) {
  return s.size() >= prefix.size() &&
         s.compare(0, prefix.size(), prefix) == 0;
}

bool ends_with(const std::string& s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// The rpc.handler.<op>.latency histogram with the most samples — the
/// op dominating this daemon's load, whose tail is the one that
/// matters.
const gekko::metrics::HistogramStats* busiest_handler(
    const gekko::metrics::Snapshot& snap, std::string* op_name) {
  const gekko::metrics::HistogramStats* best = nullptr;
  for (const auto& [name, h] : snap.histograms) {
    if (!starts_with(name, "rpc.handler.") || !ends_with(name, ".latency")) {
      continue;
    }
    if (best == nullptr || h.count > best->count) {
      best = &h;
      *op_name = name.substr(std::strlen("rpc.handler."),
                             name.size() - std::strlen("rpc.handler.") -
                                 std::strlen(".latency"));
    }
  }
  return best;
}

std::int64_t total_inflight(const gekko::metrics::Snapshot& snap) {
  std::int64_t total = 0;
  for (const auto& [name, v] : snap.gauges) {
    if (starts_with(name, "rpc.handler.") && ends_with(name, ".inflight")) {
      total += v;
    }
  }
  return total;
}

/// One-shot --traces view: drain every daemon's span ring, assemble,
/// print the K slowest traces (and optionally the Chrome JSON).
int run_traces(gekko::rpc::Engine& engine,
               const std::vector<gekko::net::EndpointId>& daemons,
               std::size_t top_k, const char* chrome_out) {
  gekko::trace::Assembler assembler;
  std::size_t reachable = 0;
  for (const auto id : daemons) {
    auto r = engine.forward(
        id, gekko::proto::to_wire(gekko::proto::RpcId::trace_dump), {});
    if (!r) {
      std::printf("node %u: down\n", id);
      continue;
    }
    auto resp = gekko::proto::TraceDumpResponse::decode(
        std::string_view(reinterpret_cast<const char*>(r->data()),
                         r->size()));
    if (!resp) {
      std::printf("node %u: bad-response\n", id);
      continue;
    }
    ++reachable;
    assembler.add_spans(resp->spans, /*clock_offset_ns=*/0);
  }
  if (reachable == 0) {
    std::fprintf(stderr, "gkfs-top: no daemon reachable\n");
    return 1;
  }
  const auto trees = assembler.assemble();
  std::printf("%zu spans in %zu traces across %zu nodes\n",
              assembler.span_count(), trees.size(), reachable);
  if (chrome_out != nullptr) {
    const std::string json = gekko::trace::to_chrome_json(trees);
    std::ofstream out(chrome_out, std::ios::binary | std::ios::trunc);
    if (!out) {
      std::fprintf(stderr, "gkfs-top: cannot write %s\n", chrome_out);
      return 1;
    }
    out << json;
    std::printf("wrote Chrome Trace JSON to %s\n", chrome_out);
  }
  for (const auto& tree : assembler.slowest(top_k)) {
    std::fputs(
        gekko::trace::format_trace(tree, gekko::proto::rpc_name).c_str(),
        stdout);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const char* hostfile = nullptr;
  const char* chrome_out = nullptr;
  bool traces_mode = false;
  std::uint32_t top_k = 10;
  std::uint32_t interval = 2;
  std::uint32_t iterations = 0;
  std::uint32_t positional = 0;
  bool bad_args = false;
  for (int i = 1; i < argc && !bad_args; ++i) {
    const std::string arg = argv[i];
    if (arg == "--traces") {
      traces_mode = true;
      // Optional K operand.
      if (i + 1 < argc && parse_u32(argv[i + 1], &top_k)) ++i;
    } else if (arg == "--chrome-trace" && i + 1 < argc) {
      chrome_out = argv[++i];
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
    std::fprintf(stderr,
                 "usage: gkfs-top <hostfile> [interval-seconds] "
                 "[iterations]\n"
                 "       gkfs-top <hostfile> --traces [K] "
                 "[--chrome-trace out.json]\n");
    return 2;
  }

  // Client role: connect-only endpoint, no listener.
  auto fabric = gekko::net::make_fabric(hostfile, {});
  if (!fabric) {
    std::fprintf(stderr, "gkfs-top: fabric: %s\n",
                 fabric.status().to_string().c_str());
    return 1;
  }
  gekko::rpc::EngineOptions eopts;
  eopts.name = "gkfs-top";
  eopts.rpc_timeout = std::chrono::milliseconds{2000};
  eopts.rpc_name = gekko::proto::rpc_name;
  gekko::rpc::Engine engine(**fabric, eopts);

  const auto daemons = (*fabric)->daemon_ids();
  if (traces_mode || chrome_out != nullptr) {
    return run_traces(engine, daemons, top_k, chrome_out);
  }
  // Previous poll per daemon, on that daemon's own snapshot clock —
  // rate_per_sec() then yields 0 (not a negative spike) across a
  // daemon restart, because both the counter and the clock reset.
  struct PrevSamples {
    gekko::metrics::SamplePoint ops, retries, timeouts, bytes_w, bytes_r;
    gekko::metrics::SamplePoint compact_in, stall_ms;
  };
  std::map<gekko::net::EndpointId, PrevSamples> prev;

  for (std::uint32_t iter = 0; iterations == 0 || iter < iterations;
       ++iter) {
    if (iter > 0 && interval > 0) {
      std::this_thread::sleep_for(std::chrono::seconds(interval));
    }
    std::printf(
        "%-5s %10s %9s %-14s %9s %9s %8s %8s %8s %9s %9s %9s %10s %9s\n",
        "node", "ops", "ops/s", "busiest-op", "p50(us)", "p99(us)",
        "inflight", "retry/s", "tmo/s", "MBw/s", "MBr/s", "meta",
        "compactM/s", "stallms/s");
    for (const auto id : daemons) {
      auto r = engine.forward(
          id, gekko::proto::to_wire(gekko::proto::RpcId::daemon_stat), {});
      if (!r) {
        std::printf("%-5u %s\n", id, "down");
        continue;
      }
      auto resp = gekko::proto::DaemonStatResponse::decode(
          std::string_view(reinterpret_cast<const char*>(r->data()),
                           r->size()));
      if (!resp) {
        std::printf("%-5u %s\n", id, "bad-response");
        continue;
      }
      auto snap = gekko::metrics::Snapshot::from_json(resp->metrics_json);
      if (!snap) {
        std::printf("%-5u %s\n", id, "bad-metrics");
        continue;
      }
      const std::uint64_t t = snap->captured_ns;
      auto point = [t](std::uint64_t v) {
        return gekko::metrics::SamplePoint{t, static_cast<std::int64_t>(v)};
      };
      PrevSamples cur;
      cur.ops = point(snap->counter_or("rpc.requests_handled"));
      cur.retries = point(snap->counter_or("rpc.retries"));
      cur.timeouts = point(snap->counter_or("rpc.timeouts"));
      cur.bytes_w = point(resp->bytes_written);
      cur.bytes_r = point(resp->bytes_read);
      cur.compact_in = point(
          static_cast<std::uint64_t>(snap->gauge_or("kv.compact.bytes_in")));
      cur.stall_ms = point(static_cast<std::uint64_t>(
          snap->gauge_or("kv.stall.foreground_ms")));

      double ops_s = 0.0;
      double retries_s = 0.0;
      double timeouts_s = 0.0;
      double mbw_s = 0.0;
      double mbr_s = 0.0;
      double compact_mbs = 0.0;
      double stall_ms_s = 0.0;
      if (auto it = prev.find(id); it != prev.end()) {
        using gekko::metrics::rate_per_sec;
        ops_s = rate_per_sec(it->second.ops, cur.ops);
        retries_s = rate_per_sec(it->second.retries, cur.retries);
        timeouts_s = rate_per_sec(it->second.timeouts, cur.timeouts);
        mbw_s = rate_per_sec(it->second.bytes_w, cur.bytes_w) /
                (1024.0 * 1024.0);
        mbr_s = rate_per_sec(it->second.bytes_r, cur.bytes_r) /
                (1024.0 * 1024.0);
        compact_mbs = rate_per_sec(it->second.compact_in, cur.compact_in) /
                      (1024.0 * 1024.0);
        stall_ms_s = rate_per_sec(it->second.stall_ms, cur.stall_ms);
      }
      prev[id] = cur;

      std::string op = "-";
      const auto* h = busiest_handler(*snap, &op);
      const double p50_us = h ? static_cast<double>(h->p50) / 1000.0 : 0.0;
      const double p99_us = h ? static_cast<double>(h->p99) / 1000.0 : 0.0;

      std::printf("%-5u %10" PRIu64 " %9.1f %-14s %9.1f %9.1f %8" PRId64
                  " %8.1f %8.1f %9.1f %9.1f %9" PRIu64 " %10.1f %9.1f\n",
                  id, static_cast<std::uint64_t>(cur.ops.value), ops_s,
                  op.c_str(), p50_us, p99_us, total_inflight(*snap),
                  retries_s, timeouts_s, mbw_s, mbr_s,
                  resp->metadata_entries, compact_mbs, stall_ms_s);
    }
    std::fflush(stdout);
  }
  return 0;
}

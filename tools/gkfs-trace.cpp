// gkfs-trace — cross-node trace collector for a running GekkoFS
// deployment.
//
// Drains every daemon's span ring over the trace_dump RPC, merges the
// spans into causal trees (trace::Assembler) and prints the K slowest
// end-to-end traces with per-span timing, indented by parentage.
// --chrome-trace additionally writes Chrome Trace Event JSON for
// about://tracing / Perfetto, with one pid per node, one tid per
// recording thread, and flow arrows on the RPC edges.
//
//   gkfs-trace <hostfile> [--top K] [--chrome-trace out.json]
//
// The ring keeps the most recent spans only; traces whose interior
// spans were overwritten still render (orphans are adopted as roots),
// and the tool reports how many spans each daemon dropped.
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "common/trace.h"
#include "net/stream_fabric.h"
#include "proto/messages.h"
#include "rpc/engine.h"

namespace {

bool parse_size(const char* arg, std::size_t* out) {
  const char* last = arg + std::strlen(arg);
  const auto [ptr, ec] = std::from_chars(arg, last, *out);
  return ec == std::errc() && ptr == last && last != arg;
}

}  // namespace

int main(int argc, char** argv) {
  const char* hostfile = nullptr;
  const char* chrome_out = nullptr;
  std::size_t top_k = 10;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--top" && i + 1 < argc) {
      if (!parse_size(argv[++i], &top_k)) {
        std::fprintf(stderr, "gkfs-trace: bad --top '%s'\n", argv[i]);
        return 2;
      }
    } else if (arg == "--chrome-trace" && i + 1 < argc) {
      chrome_out = argv[++i];
    } else if (hostfile == nullptr && !arg.empty() && arg[0] != '-') {
      hostfile = argv[i];
    } else {
      std::fprintf(stderr,
                   "usage: gkfs-trace <hostfile> [--top K] "
                   "[--chrome-trace out.json]\n");
      return 2;
    }
  }
  if (hostfile == nullptr) {
    std::fprintf(stderr,
                 "usage: gkfs-trace <hostfile> [--top K] "
                 "[--chrome-trace out.json]\n");
    return 2;
  }

  // Client role: connect-only endpoint, no listener.
  auto fabric = gekko::net::make_fabric(hostfile, {});
  if (!fabric) {
    std::fprintf(stderr, "gkfs-trace: fabric: %s\n",
                 fabric.status().to_string().c_str());
    return 1;
  }
  gekko::rpc::EngineOptions eopts;
  eopts.name = "gkfs-trace";
  eopts.rpc_timeout = std::chrono::milliseconds{2000};
  eopts.rpc_name = gekko::proto::rpc_name;
  gekko::rpc::Engine engine(**fabric, eopts);

  gekko::trace::Assembler assembler;
  std::size_t reachable = 0;
  for (const auto id : (*fabric)->daemon_ids()) {
    auto r = engine.forward(
        id, gekko::proto::to_wire(gekko::proto::RpcId::trace_dump), {});
    if (!r) {
      std::fprintf(stderr, "gkfs-trace: node %u down (%s)\n", id,
                   r.status().to_string().c_str());
      continue;
    }
    auto resp = gekko::proto::TraceDumpResponse::decode(
        std::string_view(reinterpret_cast<const char*>(r->data()),
                         r->size()));
    if (!resp) {
      std::fprintf(stderr, "gkfs-trace: node %u bad response\n", id);
      continue;
    }
    ++reachable;
    // All gkfs processes on one host share CLOCK_MONOTONIC; on a
    // multi-host deployment capture_ns anchors a per-node offset.
    assembler.add_spans(resp->spans, /*clock_offset_ns=*/0);
    const std::uint64_t dropped =
        resp->recorded > resp->spans.size()
            ? resp->recorded - resp->spans.size()
            : 0;
    std::printf("node %u: %zu spans (%llu recorded, %llu dropped to wrap)\n",
                resp->node_id, resp->spans.size(),
                static_cast<unsigned long long>(resp->recorded),
                static_cast<unsigned long long>(dropped));
  }
  if (reachable == 0) {
    std::fprintf(stderr, "gkfs-trace: no daemon reachable\n");
    return 1;
  }

  const auto trees = assembler.assemble();
  std::printf("%zu spans in %zu traces\n", assembler.span_count(),
              trees.size());

  if (chrome_out != nullptr) {
    const std::string json = gekko::trace::to_chrome_json(trees);
    std::ofstream out(chrome_out, std::ios::binary | std::ios::trunc);
    if (!out) {
      std::fprintf(stderr, "gkfs-trace: cannot write %s\n", chrome_out);
      return 1;
    }
    out << json;
    out.close();
    std::printf("wrote %zu bytes of Chrome Trace JSON to %s\n", json.size(),
                chrome_out);
  }

  const auto slowest = assembler.slowest(top_k);
  if (!slowest.empty()) {
    std::printf("\nslowest %zu traces:\n", slowest.size());
    for (const auto& tree : slowest) {
      std::fputs(gekko::trace::format_trace(tree, gekko::proto::rpc_name)
                     .c_str(),
                 stdout);
    }
  }
  return 0;
}

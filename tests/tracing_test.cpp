// Distributed-tracing tests: span context propagation, the cross-node
// Assembler (parentage, orphan adoption, dedup, slowest-k), the Chrome
// Trace Event exporter round trip, the trace_dump wire codec, the
// slow-op watchdog breakdown lines (engine, daemon, and client side),
// and an end-to-end assembly over TWO real forked gkfsd processes plus
// the gkfs-trace collector binary.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "client/client.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "daemon/daemon.h"
#include "fs/mount.h"
#include "net/fabric.h"
#include "net/stream_fabric.h"
#include "proto/messages.h"
#include "rpc/engine.h"
#include "storage/ssd_model.h"
#include "workload/fs_adapter.h"
#include "workload/ior.h"
#include "workload/mdtest.h"

namespace gekko {
namespace {

using namespace std::chrono_literals;

// ---------- span context ----------

TEST(TraceContext, GuardInstallsNestsAndRestores) {
  EXPECT_FALSE(trace::current().active());
  {
    trace::ContextGuard outer(trace::SpanContext{7, 9});
    EXPECT_TRUE(trace::current().active());
    EXPECT_EQ(trace::current().trace_id, 7u);
    EXPECT_EQ(trace::current().span_id, 9u);
    {
      trace::ContextGuard inner(trace::SpanContext{7, 11});
      EXPECT_EQ(trace::current().span_id, 11u);
    }
    EXPECT_EQ(trace::current().span_id, 9u);
  }
  EXPECT_FALSE(trace::current().active());
}

TEST(TraceContext, ContextIsPerThreadAndReinstallable) {
  trace::ContextGuard guard(trace::SpanContext{1, 2});
  const trace::SpanContext captured = trace::current();
  // A worker thread starts with no context; re-installing the captured
  // one is how the daemon's io slices inherit the service span.
  std::thread t([captured] {
    EXPECT_FALSE(trace::current().active());
    trace::ContextGuard g(captured);
    EXPECT_EQ(trace::current().trace_id, 1u);
    EXPECT_EQ(trace::current().span_id, 2u);
  });
  t.join();
  EXPECT_EQ(trace::current().span_id, 2u);
}

TEST(TraceContext, FreshIdsAreNonZeroAndDistinct) {
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t id =
        (i % 2) ? trace::new_trace_id() : trace::new_span_id();
    EXPECT_NE(id, 0u);
    EXPECT_TRUE(seen.insert(id).second);
  }
}

TEST(TraceContext, ScopedSpanIsNoOpWithoutActiveTrace) {
  metrics::Tracer tracer(16);
  { trace::ScopedSpan span(tracer, "test.idle"); }
  EXPECT_EQ(tracer.recorded(), 0u);
  {
    trace::ContextGuard guard(trace::SpanContext{50, 60});
    trace::ScopedSpan span(tracer, "test.busy");
  }
  ASSERT_EQ(tracer.recorded(), 1u);
  const auto spans = tracer.dump();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_STREQ(spans[0].name, "test.busy");
  EXPECT_EQ(spans[0].trace_id, 50u);
  EXPECT_EQ(spans[0].parent_span_id, 60u);
  EXPECT_NE(spans[0].span_id, 0u);
}

// ---------- assembler ----------

trace::Span make_span(std::uint64_t trace_id, std::uint64_t span_id,
                      std::uint64_t parent, std::uint32_t node,
                      const char* name, std::uint64_t start,
                      std::uint64_t dur) {
  trace::Span s;
  s.trace_id = trace_id;
  s.span_id = span_id;
  s.parent_span_id = parent;
  s.node_id = node;
  s.name = name;
  s.start_ns = start;
  s.duration_ns = dur;
  return s;
}

TEST(TraceAssembler, BuildsParentageAcrossNodes) {
  trace::Assembler a;
  a.add(make_span(0x42, 1, 0, 100, "client.write", 1000, 500000));
  a.add(make_span(0x42, 2, 1, 100, "rpc.caller", 2000, 400000));
  a.add(make_span(0x42, 3, 2, 0, "rpc.service", 100000, 200000));
  a.add(make_span(0x42, 4, 3, 0, "daemon.io.slice", 120000, 100000));
  // A second, unrelated trace.
  a.add(make_span(0x99, 9, 0, 1, "client.stat", 5000, 1000));
  EXPECT_EQ(a.span_count(), 5u);

  const auto trees = a.assemble();
  ASSERT_EQ(trees.size(), 2u);
  const auto& tree = trees[0].trace_id == 0x42 ? trees[0] : trees[1];
  ASSERT_EQ(tree.spans.size(), 4u);
  ASSERT_EQ(tree.roots.size(), 1u);
  EXPECT_EQ(tree.spans[tree.roots[0]].name, "client.write");
  // Envelope covers the earliest start to the latest end.
  EXPECT_EQ(tree.start_ns, 1000u);
  EXPECT_EQ(tree.end_ns, 1000u + 500000u);

  // Walk the chain: write -> caller -> service -> slice.
  std::size_t idx = tree.roots[0];
  for (const char* expected :
       {"rpc.caller", "rpc.service", "daemon.io.slice"}) {
    ASSERT_EQ(tree.children[idx].size(), 1u) << expected;
    idx = tree.children[idx][0];
    EXPECT_EQ(tree.spans[idx].name, expected);
  }
  EXPECT_TRUE(tree.children[idx].empty());
}

TEST(TraceAssembler, AdoptsOrphansAndDedupsSpans) {
  trace::Assembler a;
  // Parent span 2 was lost to ring wrap; 3 must still render as a root.
  a.add(make_span(0x7, 1, 0, 0, "client.read", 0, 1000));
  a.add(make_span(0x7, 3, 2, 1, "rpc.service", 100, 500));
  // Duplicate delivery of the same span id is kept once.
  a.add(make_span(0x7, 3, 2, 1, "rpc.service", 100, 500));
  // trace_id 0 spans (never traced) are ignored outright.
  a.add(make_span(0, 5, 0, 0, "noise", 0, 1));
  EXPECT_EQ(a.span_count(), 2u);

  const auto trees = a.assemble();
  ASSERT_EQ(trees.size(), 1u);
  EXPECT_EQ(trees[0].spans.size(), 2u);
  EXPECT_EQ(trees[0].roots.size(), 2u);  // true root + adopted orphan
}

TEST(TraceAssembler, SlowestSortsByEnvelopeDuration) {
  trace::Assembler a;
  a.add(make_span(1, 1, 0, 0, "op.a", 0, 1000));
  a.add(make_span(2, 2, 0, 0, "op.b", 0, 9000));
  a.add(make_span(3, 3, 0, 0, "op.c", 0, 5000));
  const auto top2 = a.slowest(2);
  ASSERT_EQ(top2.size(), 2u);
  EXPECT_EQ(top2[0].trace_id, 2u);
  EXPECT_EQ(top2[1].trace_id, 3u);
  EXPECT_EQ(a.slowest(10).size(), 3u);

  // format_trace renders every root with indentation and durations.
  const std::string text = trace::format_trace(top2[0]);
  EXPECT_NE(text.find("trace 0x2"), std::string::npos) << text;
  EXPECT_NE(text.find("op.b"), std::string::npos) << text;
}

// ---------- Chrome Trace Event export ----------

TEST(ChromeExport, EmitsMetadataCompleteAndFlowEvents) {
  trace::Assembler a;
  trace::Span root = make_span(0x42, 1, 0, 100, "client.write", 1000, 500000);
  root.thread = 1;
  trace::Span caller = make_span(0x42, 2, 1, 100, "rpc.caller", 2000, 400000);
  caller.thread = 1;
  caller.rpc_id = 8;
  trace::Span service =
      make_span(0x42, 3, 2, 0, "rpc.service", 100000, 200000);
  service.thread = 2;
  service.rpc_id = 8;
  trace::Span slice =
      make_span(0x42, 4, 3, 0, "daemon.io.slice", 120000, 100000);
  slice.thread = 3;
  a.add(root);
  a.add(caller);
  a.add(service);
  a.add(slice);

  const std::string json = trace::to_chrome_json(a.assemble());
  auto events = trace::parse_chrome_json(json);
  ASSERT_TRUE(events.is_ok()) << events.status().to_string() << "\n" << json;

  // Process-name metadata once per node, pid = node id.
  std::set<std::int64_t> meta_pids;
  for (const auto& ev : *events) {
    if (ev.ph == "M") {
      EXPECT_EQ(ev.name, "process_name");
      meta_pids.insert(ev.pid);
    }
  }
  EXPECT_EQ(meta_pids, (std::set<std::int64_t>{0, 100}));

  // One complete event per span with pid/tid/ts/dur.
  bool saw_service = false;
  int complete = 0;
  for (const auto& ev : *events) {
    if (ev.ph != "X") continue;
    ++complete;
    if (ev.name == "rpc.service") {
      saw_service = true;
      EXPECT_EQ(ev.pid, 0);
      EXPECT_EQ(ev.tid, 2);
      EXPECT_DOUBLE_EQ(ev.ts, 100.0);   // 100000 ns = 100 us
      EXPECT_DOUBLE_EQ(ev.dur, 200.0);  // 200000 ns = 200 us
    }
  }
  EXPECT_EQ(complete, 4);
  EXPECT_TRUE(saw_service);

  // Exactly one cross-node edge (caller node 100 -> service node 0):
  // an "s"/"f" flow pair bound by the same id, anchored at the two
  // ends of the hop.
  const trace::ChromeEvent* flow_start = nullptr;
  const trace::ChromeEvent* flow_end = nullptr;
  for (const auto& ev : *events) {
    if (ev.ph == "s") flow_start = &ev;
    if (ev.ph == "f") flow_end = &ev;
  }
  ASSERT_NE(flow_start, nullptr);
  ASSERT_NE(flow_end, nullptr);
  EXPECT_EQ(flow_start->cat, "rpc");
  EXPECT_EQ(flow_end->cat, "rpc");
  EXPECT_EQ(flow_start->id, flow_end->id);
  EXPECT_EQ(flow_start->id, "0x3");  // the child (service) span id
  EXPECT_EQ(flow_start->pid, 100);
  EXPECT_EQ(flow_end->pid, 0);

  // Garbage must fail cleanly.
  EXPECT_FALSE(trace::parse_chrome_json("").is_ok());
  EXPECT_FALSE(trace::parse_chrome_json("{\"traceEvents\":[{").is_ok());
  EXPECT_FALSE(trace::parse_chrome_json("nope").is_ok());
}

// ---------- trace_dump wire codec ----------

TEST(TraceDumpCodec, RoundTripsSpansAndHeader) {
  proto::TraceDumpResponse resp;
  resp.node_id = 3;
  resp.capture_ns = 123456789;
  resp.recorded = 10;
  resp.capacity = 8;
  trace::Span s = make_span(0xdead, 0xbeef, 0xcafe, 3, "storage.write_chunk",
                            42, 4242);
  s.rpc_id = 9;
  s.attempt = 2;
  s.thread = 5;
  resp.spans.push_back(s);
  resp.spans.push_back(make_span(0xdead, 0xf00d, 0xbeef, 3, "kv.wal.append",
                                 100, 200));

  const auto bytes = resp.encode();
  auto back = proto::TraceDumpResponse::decode(std::string_view(
      reinterpret_cast<const char*>(bytes.data()), bytes.size()));
  ASSERT_TRUE(back.is_ok()) << back.status().to_string();
  EXPECT_EQ(back->node_id, 3u);
  EXPECT_EQ(back->capture_ns, 123456789u);
  EXPECT_EQ(back->recorded, 10u);
  EXPECT_EQ(back->capacity, 8u);
  ASSERT_EQ(back->spans.size(), 2u);
  EXPECT_EQ(back->spans[0].trace_id, 0xdeadu);
  EXPECT_EQ(back->spans[0].span_id, 0xbeefu);
  EXPECT_EQ(back->spans[0].parent_span_id, 0xcafeu);
  EXPECT_EQ(back->spans[0].name, "storage.write_chunk");
  EXPECT_EQ(back->spans[0].rpc_id, 9u);
  EXPECT_EQ(back->spans[0].attempt, 2u);
  EXPECT_EQ(back->spans[0].thread, 5u);
  EXPECT_EQ(back->spans[0].start_ns, 42u);
  EXPECT_EQ(back->spans[0].duration_ns, 4242u);
  EXPECT_EQ(back->spans[1].name, "kv.wal.append");

  // Truncation at any point must fail with corruption, not crash.
  for (std::size_t cut = 0; cut < bytes.size(); cut += 7) {
    auto r = proto::TraceDumpResponse::decode(std::string_view(
        reinterpret_cast<const char*>(bytes.data()), cut));
    EXPECT_FALSE(r.is_ok()) << "cut=" << cut;
  }
}

// ---------- slow-op watchdog ----------

class LogCapture {
 public:
  LogCapture() {
    log::set_sink([this](log::Level, std::string_view line) {
      const std::lock_guard<std::mutex> lock(mutex_);  // lint-ok: bare-mutex — test helper
      lines_.emplace_back(line);
    });
  }
  ~LogCapture() { log::set_sink(nullptr); }

  std::vector<std::string> lines() {
    const std::lock_guard<std::mutex> lock(mutex_);  // lint-ok: bare-mutex — test helper
    return lines_;
  }
  bool contains_all(std::initializer_list<const char*> needles) {
    for (const auto& line : lines()) {
      bool all = true;
      for (const char* n : needles) {
        if (line.find(n) == std::string::npos) {
          all = false;
          break;
        }
      }
      if (all) return true;
    }
    return false;
  }

 private:
  std::mutex mutex_;  // lint-ok: bare-mutex — test helper
  std::vector<std::string> lines_;
};

TEST(SlowOpWatchdog, BreakdownLineMergesStages) {
  LogCapture capture;
  trace::stages_reset();
  trace::stage_add("queue", 1'500'000);
  trace::stage_add("io", 2'000'000);
  trace::stage_add("io", 500'000);  // repeats merge
  trace::log_slow_op("daemon", "write_chunks", 0xabc, 10'000'000,
                     {{"service", 7'000'000}});
  EXPECT_TRUE(capture.contains_all(
      {"slow-op daemon.write_chunks", "trace=0xabc", "total=10.000ms",
       "queue=1.500ms", "io=2.500ms", "service=7.000ms"}))
      << ::testing::PrintToString(capture.lines());
}

TEST(SlowOpWatchdog, EngineHandlerEmitsQueueServiceBreakdown) {
  metrics::Registry reg;
  metrics::Tracer tracer(64);
  net::LoopbackFabric fabric;
  rpc::EngineOptions sopts;
  sopts.name = "trc-server";
  sopts.registry = &reg;
  sopts.tracer = &tracer;
  rpc::Engine server(fabric, sopts);
  server.register_rpc(4, "sleepy", [](const net::Message&) {
    std::this_thread::sleep_for(5ms);
    return Result<std::vector<std::uint8_t>>(std::vector<std::uint8_t>{});
  });
  rpc::EngineOptions copts;
  copts.registry = &reg;
  copts.tracer = &tracer;
  rpc::Engine client(fabric, copts);

  trace::set_slow_op_threshold_ms(1);
  LogCapture capture;
  auto r = client.forward(server.endpoint(), 4, {});
  trace::set_slow_op_threshold_ms(200);
  ASSERT_TRUE(r.is_ok());
  // The serving side attributes the total across queue + service.
  EXPECT_TRUE(capture.contains_all(
      {"slow-op trc-server.sleepy", "trace=0x", "total=", "queue=",
       "service="}))
      << ::testing::PrintToString(capture.lines());
}

TEST(SlowOpWatchdog, ClientAndDaemonEmitPerStageBreakdownForSlowWrite) {
  const auto root = std::filesystem::temp_directory_path() /
                    ("gekko_slowop_" + std::to_string(::getpid()));
  std::filesystem::remove_all(root);
  std::filesystem::create_directories(root);

  net::LoopbackFabric fabric;
  // Injected delay: the modeled device makes every chunk slice take
  // ≥5 ms, pushing the op far past the 1 ms threshold.
  storage::SsdProfile prof;
  prof.write_latency_s = 0.005;
  prof.read_latency_s = 0.005;
  const storage::SsdModel model(prof);
  daemon::DaemonOptions dopts;
  dopts.chunk_size = 8192;
  dopts.device_model = &model;
  auto daemon = daemon::GekkoDaemon::start(fabric, root, dopts);
  ASSERT_TRUE(daemon.is_ok()) << daemon.status().to_string();

  client::ClientOptions copts;
  copts.chunk_size = 8192;
  client::Client client(fabric, {(*daemon)->endpoint()}, copts);
  ASSERT_TRUE(client.create("/slow", proto::FileType::regular).is_ok());

  trace::set_slow_op_threshold_ms(1);
  LogCapture capture;
  std::vector<std::uint8_t> data(8192, 0x5a);
  auto w = client.write("/slow", 0, data);
  trace::set_slow_op_threshold_ms(200);
  ASSERT_TRUE(w.is_ok()) << w.status().to_string();

  // Client side: one line for the whole op.
  EXPECT_TRUE(capture.contains_all({"slow-op client.write", "trace=0x",
                                    "total="}))
      << ::testing::PrintToString(capture.lines());
  // Daemon side: the write_chunks handler attributes queue/io/bulk/
  // service — the per-stage breakdown that answers "where did the
  // time go" without any collector running.
  EXPECT_TRUE(capture.contains_all({"slow-op", "write_chunks", "queue=",
                                    "io=", "bulk=", "service="}))
      << ::testing::PrintToString(capture.lines());

  std::filesystem::remove_all(root);
}

// ---------- sampling gate ----------

TEST(TraceSampling, DisablingDeepTracesKeepsEngineSpans) {
  metrics::Tracer tracer(64);
  net::LoopbackFabric fabric;
  rpc::EngineOptions sopts;
  sopts.tracer = &tracer;
  rpc::Engine server(fabric, sopts);
  std::atomic<bool> handler_saw_context{false};
  server.register_rpc(6, "probe", [&](const net::Message&) {
    handler_saw_context.store(trace::current().active());
    return Result<std::vector<std::uint8_t>>(std::vector<std::uint8_t>{});
  });
  rpc::EngineOptions copts;
  copts.tracer = &tracer;
  rpc::Engine client(fabric, copts);

  const bool was_enabled = trace::enabled();
  trace::set_enabled(false);
  auto r = client.forward(server.endpoint(), 6, {});
  trace::set_enabled(true);
  auto r2 = client.forward(server.endpoint(), 6, {});
  trace::set_enabled(was_enabled);
  ASSERT_TRUE(r.is_ok());
  ASSERT_TRUE(r2.is_ok());
  // With sampling off the handler runs without a context (ScopedSpan
  // touch points no-op); the engine's own telemetry spans remain.
  EXPECT_TRUE(handler_saw_context.load());
  int callers = 0;
  for (const auto& s : tracer.dump()) {
    if (std::string_view(s.name) == "rpc.caller") ++callers;
  }
  EXPECT_EQ(callers, 2);
}

// ---------- end to end over real daemon processes ----------

class TracingE2ETest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("gekko_tracing_" + std::to_string(::getpid()));
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::filesystem::path dir_;
};

TEST_F(TracingE2ETest, AssemblesCrossNodeTreesFromTwoRealDaemons) {
  constexpr std::uint32_t kDaemons = 2;
  auto hostfile =
      net::StreamFabric::write_hostfile(dir_, kDaemons, net::Transport::uds);
  ASSERT_TRUE(hostfile.is_ok());

  std::vector<pid_t> children;
  for (std::uint32_t id = 0; id < kDaemons; ++id) {
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      const std::string root = (dir_ / ("node" + std::to_string(id))).string();
      const std::string id_str = std::to_string(id);
      ::execl(GKFSD_BIN, "gkfsd", hostfile->c_str(), id_str.c_str(),
              root.c_str(), "8192", static_cast<char*>(nullptr));
      ::_exit(12);  // exec failed
    }
    children.push_back(pid);
  }
  for (std::uint32_t id = 0; id < kDaemons; ++id) {
    const auto sock = dir_ / ("gkfsd." + std::to_string(id) + ".sock");
    for (int i = 0; i < 250 && !std::filesystem::exists(sock); ++i) {
      ::usleep(20 * 1000);
    }
    ASSERT_TRUE(std::filesystem::exists(sock)) << sock;
  }

  // The client side of the assembled picture is THIS process's ring;
  // give it a distinctive node id (another test's engine may have
  // claimed the first-wins slot already). Earlier in-process tests
  // share the global ring — remember where this test starts so their
  // spans can be filtered out of the merge below.
  trace::set_node_id(100);
  trace::set_enabled(true);
  const std::uint64_t test_start_ns = metrics::now_ns();

  auto client_fabric = net::StreamFabric::create(*hostfile, {});
  ASSERT_TRUE(client_fabric.is_ok());
  client::ClientOptions copts;
  copts.chunk_size = 8192;
  fs::Mount mnt(**client_fabric, {0, 1}, copts);

  // Mixed metadata + data workload over both daemons.
  workload::GekkoAdapter adapter(mnt);
  workload::MdtestConfig md;
  md.procs = 2;
  md.files_per_proc = 10;
  auto md_result = workload::run_mdtest(adapter, md);
  ASSERT_TRUE(md_result.is_ok()) << md_result.status().to_string();
  workload::IorConfig ior;
  ior.procs = 2;
  ior.transfer_size = 16 * 1024;  // 2 chunks per transfer → both daemons
  ior.bytes_per_proc = 64 * 1024;
  auto ior_result = workload::run_ior(adapter, ior);
  ASSERT_TRUE(ior_result.is_ok()) << ior_result.status().to_string();

  // Drain every daemon's ring over the trace_dump RPC.
  auto dumps = mnt.client().trace_dumps();
  ASSERT_TRUE(dumps.is_ok()) << dumps.status().to_string();
  ASSERT_EQ(dumps->size(), kDaemons);
  std::set<std::uint32_t> nodes;
  for (const auto& d : *dumps) {
    nodes.insert(d.node_id);
    EXPECT_GT(d.capture_ns, 0u);
    EXPECT_GT(d.capacity, 0u);
    EXPECT_FALSE(d.spans.empty());
    EXPECT_GE(d.recorded, d.spans.size());
  }
  EXPECT_EQ(nodes, (std::set<std::uint32_t>{0, 1}));

  // Merge daemon spans with this process's own ring. Same host →
  // shared CLOCK_MONOTONIC → offset 0.
  trace::Assembler assembler;
  for (const auto& d : *dumps) assembler.add_spans(d.spans, 0);
  std::vector<metrics::TraceSpan> own;
  for (const auto& s : metrics::Tracer::global().dump()) {
    if (s.start_ns >= test_start_ns) own.push_back(s);
  }
  assembler.add_spans(own, 0);
  const auto trees = assembler.assemble();
  ASSERT_FALSE(trees.empty());

  // At least one write trace must assemble end to end:
  //   client.write (node 100)
  //     └ rpc.caller (node 100)
  //         └ rpc.service (daemon node)
  //             └ daemon.io.slice (same daemon)
  bool found_full_chain = false;
  std::set<std::uint32_t> daemon_nodes_in_write_traces;
  for (const auto& tree : trees) {
    const trace::Span* write = nullptr;
    for (const auto& s : tree.spans) {
      if (s.name == "client.write") write = &s;
    }
    if (write == nullptr) continue;
    EXPECT_EQ(write->node_id, 100u);
    for (const auto& caller : tree.spans) {
      if (caller.name != "rpc.caller" ||
          caller.parent_span_id != write->span_id) {
        continue;
      }
      for (const auto& service : tree.spans) {
        if (service.name != "rpc.service" ||
            service.parent_span_id != caller.span_id) {
          continue;
        }
        EXPECT_TRUE(service.node_id == 0 || service.node_id == 1);
        daemon_nodes_in_write_traces.insert(service.node_id);
        for (const auto& slice : tree.spans) {
          if (slice.name == "daemon.io.slice" &&
              slice.parent_span_id == service.span_id) {
            EXPECT_EQ(slice.node_id, service.node_id);
            found_full_chain = true;
          }
        }
      }
    }
  }
  EXPECT_TRUE(found_full_chain);
  // The striped writes fanned out to BOTH daemons.
  EXPECT_EQ(daemon_nodes_in_write_traces, (std::set<std::uint32_t>{0, 1}));

  // The Chrome export of the assembled run must parse back with
  // metadata for all three processes and flow arrows on RPC edges.
  const std::string json = trace::to_chrome_json(trees);
  auto events = trace::parse_chrome_json(json);
  ASSERT_TRUE(events.is_ok()) << events.status().to_string();
  std::set<std::int64_t> pids;
  int flows = 0, completes = 0;
  for (const auto& ev : *events) {
    if (ev.ph == "M") pids.insert(ev.pid);
    if (ev.ph == "s" || ev.ph == "f") ++flows;
    if (ev.ph == "X") ++completes;
  }
  EXPECT_TRUE(pids.contains(0));
  EXPECT_TRUE(pids.contains(1));
  EXPECT_TRUE(pids.contains(100));
  EXPECT_GT(completes, 0);
  EXPECT_GT(flows, 0);
  EXPECT_EQ(flows % 2, 0);  // s/f always in pairs

  // The gkfs-trace collector binary sees the same daemons.
  const auto chrome_path = dir_ / "trace.json";
  const std::string cmd = std::string(GKFS_TRACE_BIN) + " " +
                          hostfile->string() + " --top 3 --chrome-trace " +
                          chrome_path.string() + " 2>&1";
  FILE* pipe = ::popen(cmd.c_str(), "r");
  ASSERT_NE(pipe, nullptr);
  std::string output;
  char buf[512];
  while (std::fgets(buf, sizeof(buf), pipe) != nullptr) output += buf;
  const int rc = ::pclose(pipe);
  EXPECT_EQ(rc, 0) << output;
  EXPECT_NE(output.find("spans in"), std::string::npos) << output;
  EXPECT_NE(output.find("slowest"), std::string::npos) << output;

  std::ifstream in(chrome_path, std::ios::binary);
  ASSERT_TRUE(in.good());
  std::string file_json((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
  auto file_events = trace::parse_chrome_json(file_json);
  ASSERT_TRUE(file_events.is_ok()) << file_events.status().to_string();
  EXPECT_FALSE(file_events->empty());

  for (const pid_t pid : children) {
    ::kill(pid, SIGKILL);
    int status = 0;
    ::waitpid(pid, &status, 0);
  }
}

}  // namespace
}  // namespace gekko

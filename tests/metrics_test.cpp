// Observability tests: the metrics substrate itself (lock-free
// recording vs concurrent snapshots, JSON round trip, tracer ring
// wraparound), end-to-end counter coverage across every layer after a
// mixed mdtest+IOR run, and the gkfs-top tool against REAL forked
// gkfsd processes.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "client/client.h"
#include "cluster/cluster.h"
#include "common/metrics.h"
#include "fs/mount.h"
#include "net/fabric.h"
#include "net/stream_fabric.h"
#include "proto/messages.h"
#include "rpc/engine.h"
#include "workload/fs_adapter.h"
#include "workload/ior.h"
#include "workload/mdtest.h"

namespace gekko {
namespace {

TEST(MetricsTest, CounterGaugeHistogramBasics) {
  metrics::Registry reg;
  auto& c = reg.counter("t.counter");
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
  // Same name → same instance (stable cached references).
  EXPECT_EQ(&reg.counter("t.counter"), &c);

  auto& g = reg.gauge("t.gauge");
  g.add(10);
  g.sub(3);
  EXPECT_EQ(g.value(), 7);
  g.set(-5);
  EXPECT_EQ(g.value(), -5);

  auto& h = reg.histogram("t.hist");
  for (std::uint64_t v = 1; v <= 100; ++v) h.record(v);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_EQ(h.sum(), 5050u);
  const auto lat = h.materialize();
  EXPECT_EQ(lat.count(), 100u);
  EXPECT_GE(lat.quantile(0.99), 90u);
}

TEST(MetricsTest, RegistryConcurrentRecordAndSnapshot) {
  metrics::Registry reg;
  auto& c = reg.counter("concurrent.counter");
  auto& h = reg.histogram("concurrent.hist");
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10000;

  std::atomic<bool> stop{false};
  // Snapshot continuously while recorders hammer the registry: the
  // record path must never block on (or corrupt) the snapshot walk.
  std::thread snapshotter([&] {
    while (!stop.load()) {
      auto snap = reg.snapshot();
      EXPECT_LE(snap.counter_or("concurrent.counter"),
                std::uint64_t{kThreads} * kPerThread);
    }
  });

  std::vector<std::thread> recorders;
  recorders.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    recorders.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        c.inc();
        h.record(static_cast<std::uint64_t>(t * kPerThread + i));
      }
    });
  }
  for (auto& th : recorders) th.join();
  stop.store(true);
  snapshotter.join();

  EXPECT_EQ(c.value(), std::uint64_t{kThreads} * kPerThread);
  EXPECT_EQ(h.count(), std::uint64_t{kThreads} * kPerThread);
  const auto snap = reg.snapshot();
  EXPECT_EQ(snap.counter_or("concurrent.counter"),
            std::uint64_t{kThreads} * kPerThread);
  auto it = snap.histograms.find("concurrent.hist");
  ASSERT_NE(it, snap.histograms.end());
  EXPECT_EQ(it->second.count, std::uint64_t{kThreads} * kPerThread);
}

TEST(MetricsTest, SnapshotJsonRoundTrip) {
  metrics::Registry reg;
  reg.counter("a.ops").inc(123);
  reg.counter("b.with\"quote\\slash").inc(1);
  reg.gauge("g.inflight").set(-7);
  auto& h = reg.histogram("h.latency");
  for (std::uint64_t v = 0; v < 1000; ++v) h.record(v);

  auto snap = reg.snapshot();
  // snapshot() stamps the capture time; the node id is stamped by
  // whoever serves the snapshot (the daemon's endpoint id).
  EXPECT_GT(snap.captured_ns, 0u);
  snap.node_id = 7;
  const std::string json = snap.to_json();
  auto parsed = metrics::Snapshot::from_json(json);
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();

  EXPECT_EQ(parsed->node_id, 7u);
  EXPECT_EQ(parsed->captured_ns, snap.captured_ns);
  EXPECT_EQ(parsed->counters, snap.counters);
  EXPECT_EQ(parsed->gauges, snap.gauges);
  ASSERT_EQ(parsed->histograms.size(), snap.histograms.size());
  const auto& orig = snap.histograms.at("h.latency");
  const auto& back = parsed->histograms.at("h.latency");
  EXPECT_EQ(back.count, orig.count);
  EXPECT_EQ(back.sum, orig.sum);
  EXPECT_EQ(back.p50, orig.p50);
  EXPECT_EQ(back.p90, orig.p90);
  EXPECT_EQ(back.p99, orig.p99);
  EXPECT_EQ(back.max, orig.max);

  // Pre-node_id snapshots (older daemons) must still parse.
  auto legacy = metrics::Snapshot::from_json(
      "{\"counters\":{\"x\":1},\"gauges\":{},\"histograms\":{}}");
  ASSERT_TRUE(legacy.is_ok()) << legacy.status().to_string();
  EXPECT_EQ(legacy->counter_or("x"), 1u);

  // Malformed input must fail cleanly, not crash or mis-parse.
  EXPECT_FALSE(metrics::Snapshot::from_json("").is_ok());
  EXPECT_FALSE(metrics::Snapshot::from_json("{").is_ok());
  EXPECT_FALSE(metrics::Snapshot::from_json("{\"counters\":{").is_ok());
  EXPECT_FALSE(metrics::Snapshot::from_json("not json at all").is_ok());
}

// Fuzz-found (fuzz/corpus/config/regression_int64_overflow.json and
// regression_negative_counter.json): a digit string past INT64_MAX
// overflowed the parser's signed accumulator — undefined behaviour,
// aborted under UBSan — and a negative counter wrapped to 2^64-2,
// which to_json re-emitted as a value the parser then rejected.
// Counters and histogram fields are uint64 on the wire: the full
// unsigned range must parse, '-' must not; gauges are int64 with both
// extremes representable; anything out of range is a clean failure.
TEST(MetricsTest, SnapshotJsonIntegerRangeEdges) {
  auto counter_max = metrics::Snapshot::from_json(
      "{\"counters\":{\"x\":18446744073709551615},"
      "\"gauges\":{},\"histograms\":{}}");
  ASSERT_TRUE(counter_max.is_ok()) << counter_max.status().to_string();
  EXPECT_EQ(counter_max->counter_or("x"),
            std::numeric_limits<std::uint64_t>::max());
  auto counter_over = metrics::Snapshot::from_json(
      "{\"counters\":{\"x\":18446744073709551616},"
      "\"gauges\":{},\"histograms\":{}}");
  EXPECT_FALSE(counter_over.is_ok());
  auto counter_negative = metrics::Snapshot::from_json(
      "{\"counters\":{\"x\":-2},\"gauges\":{},\"histograms\":{}}");
  EXPECT_FALSE(counter_negative.is_ok());

  auto gauge_min = metrics::Snapshot::from_json(
      "{\"counters\":{},\"gauges\":{\"g\":-9223372036854775808},"
      "\"histograms\":{}}");
  ASSERT_TRUE(gauge_min.is_ok()) << gauge_min.status().to_string();
  EXPECT_EQ(gauge_min->gauges.at("g"),
            std::numeric_limits<std::int64_t>::min());
  auto gauge_under = metrics::Snapshot::from_json(
      "{\"counters\":{},\"gauges\":{\"g\":-9223372036854775809},"
      "\"histograms\":{}}");
  EXPECT_FALSE(gauge_under.is_ok());
  auto gauge_over = metrics::Snapshot::from_json(
      "{\"counters\":{},\"gauges\":{\"g\":9223372036854775808},"
      "\"histograms\":{}}");
  EXPECT_FALSE(gauge_over.is_ok());
}

TEST(MetricsTest, TracerRingBufferWraparound) {
  metrics::Tracer tracer(8);
  EXPECT_EQ(tracer.capacity(), 8u);
  tracer.set_node_id(5);
  constexpr std::uint64_t kSpans = 20;
  for (std::uint64_t i = 0; i < kSpans; ++i) {
    tracer.record("test.span", /*trace_id=*/100 + i, /*span_id=*/1000 + i,
                  /*parent_span_id=*/i, /*rpc_id=*/
                  static_cast<std::uint16_t>(i), /*attempt=*/
                  static_cast<std::uint32_t>(i % 3),
                  /*start_ns=*/i * 10, /*duration_ns=*/i);
  }
  EXPECT_EQ(tracer.recorded(), kSpans);

  const auto spans = tracer.dump();
  ASSERT_EQ(spans.size(), tracer.capacity());
  // Ring keeps the newest `capacity` spans, oldest first, and every
  // causal field must survive the wrap.
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::uint64_t logical = kSpans - tracer.capacity() + i;
    EXPECT_EQ(spans[i].trace_id, 100 + logical) << "slot " << i;
    EXPECT_EQ(spans[i].span_id, 1000 + logical);
    EXPECT_EQ(spans[i].parent_span_id, logical);
    EXPECT_EQ(spans[i].attempt, logical % 3);
    EXPECT_EQ(spans[i].node_id, 5u);
    EXPECT_EQ(spans[i].duration_ns, logical);
    EXPECT_STREQ(spans[i].name, "test.span");
  }

  // Concurrent recording while dumping must not crash or return more
  // than capacity spans.
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    std::uint64_t i = kSpans;
    while (!stop.load()) {
      tracer.record("test.span2", i, i + 1, 0, 1, 0, 0, 1);
      ++i;
    }
  });
  for (int i = 0; i < 100; ++i) {
    EXPECT_LE(tracer.dump().size(), tracer.capacity());
  }
  stop.store(true);
  writer.join();
}

TEST(MetricsTest, EngineRecordsCallerAndHandlerMetrics) {
  metrics::Registry reg;
  net::LoopbackFabric fabric;
  rpc::EngineOptions sopts;
  sopts.name = "metrics-server";
  sopts.registry = &reg;
  rpc::Engine server(fabric, sopts);
  server.register_rpc(7, "echo", [](const net::Message& msg) {
    return Result<std::vector<std::uint8_t>>(msg.payload);
  });

  rpc::EngineOptions copts;
  copts.name = "metrics-client";
  copts.registry = &reg;
  copts.rpc_name = [](std::uint16_t) { return std::string("echo"); };
  rpc::Engine client(fabric, copts);

  for (int i = 0; i < 10; ++i) {
    auto r = client.forward(server.endpoint(), 7, {1, 2, 3});
    ASSERT_TRUE(r.is_ok());
  }

  const auto snap = reg.snapshot();
  EXPECT_EQ(snap.counter_or("rpc.caller.echo.sent"), 10u);
  EXPECT_EQ(snap.counter_or("rpc.caller.echo.ok"), 10u);
  EXPECT_EQ(snap.counter_or("rpc.caller.echo.errors"), 0u);
  EXPECT_EQ(snap.counter_or("rpc.requests_sent"), 10u);
  EXPECT_EQ(snap.counter_or("rpc.requests_handled"), 10u);
  EXPECT_EQ(snap.gauge_or("rpc.caller.echo.inflight"), 0);
  EXPECT_EQ(snap.gauge_or("rpc.handler.echo.inflight"), 0);
  const auto caller_lat = snap.histograms.at("rpc.caller.echo.latency");
  EXPECT_EQ(caller_lat.count, 10u);
  EXPECT_GT(caller_lat.p50, 0u);
  const auto handler_lat = snap.histograms.at("rpc.handler.echo.latency");
  EXPECT_EQ(handler_lat.count, 10u);
  EXPECT_EQ(snap.histograms.at("rpc.handler.echo.queue").count, 10u);
}

TEST(MetricsTest, TracerCapturesQueueServiceAndCallerSpans) {
  metrics::Registry reg;
  metrics::Tracer tracer(64);
  net::LoopbackFabric fabric;
  rpc::EngineOptions sopts;
  sopts.registry = &reg;
  sopts.tracer = &tracer;
  rpc::Engine server(fabric, sopts);
  server.register_rpc(3, "noop", [](const net::Message&) {
    return Result<std::vector<std::uint8_t>>(std::vector<std::uint8_t>{});
  });
  rpc::EngineOptions copts;
  copts.registry = &reg;
  copts.tracer = &tracer;
  rpc::Engine client(fabric, copts);

  auto r = client.forward(server.endpoint(), 3, {});
  ASSERT_TRUE(r.is_ok());

  const auto spans = tracer.dump();
  ASSERT_GE(spans.size(), 3u);
  // All three span kinds must carry the SAME trace id: that is what
  // lets a slow op be attributed to queueing vs service vs transport.
  std::uint64_t trace_id = 0;
  bool saw_queue = false, saw_service = false, saw_caller = false;
  for (const auto& s : spans) {
    if (std::string_view(s.name) == "rpc.queue") {
      saw_queue = true;
      trace_id = s.trace_id;
    }
  }
  ASSERT_TRUE(saw_queue);
  EXPECT_NE(trace_id, 0u);
  std::uint64_t caller_span = 0;
  for (const auto& s : spans) {
    if (s.trace_id != trace_id) continue;
    if (std::string_view(s.name) == "rpc.caller") {
      saw_caller = true;
      caller_span = s.span_id;
      EXPECT_NE(s.span_id, 0u);
    }
    EXPECT_EQ(s.rpc_id, 3u);
  }
  ASSERT_TRUE(saw_caller);
  // Serving-side spans parent under the caller span shipped in the
  // message header — the cross-process causal edge.
  for (const auto& s : spans) {
    if (s.trace_id != trace_id) continue;
    if (std::string_view(s.name) == "rpc.service" ||
        std::string_view(s.name) == "rpc.queue") {
      if (std::string_view(s.name) == "rpc.service") saw_service = true;
      EXPECT_EQ(s.parent_span_id, caller_span) << s.name;
    }
  }
  EXPECT_TRUE(saw_service);
}

class MetricsClusterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("gekko_metrics_" + std::to_string(::getpid()));
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::filesystem::path dir_;
};

TEST_F(MetricsClusterTest, EndToEndCountersNonZeroAfterMixedWorkload) {
  // A mixed mdtest + IOR run over an in-process cluster must light up
  // counters in EVERY instrumented layer of the global registry:
  // client forwarding, rpc engine (both sides), loopback fabric,
  // daemon service, chunk storage, and the kv store.
  cluster::ClusterOptions opts;
  opts.nodes = 3;
  opts.root = dir_;
  opts.daemon_options.chunk_size = 64 * 1024;
  auto cluster = cluster::Cluster::start(opts);
  ASSERT_TRUE(cluster.is_ok()) << cluster.status().to_string();
  auto mnt = (*cluster)->mount();

  workload::GekkoAdapter adapter(*mnt);
  workload::MdtestConfig md;
  md.procs = 2;
  md.files_per_proc = 40;
  auto md_result = workload::run_mdtest(adapter, md);
  ASSERT_TRUE(md_result.is_ok()) << md_result.status().to_string();
  EXPECT_EQ(md_result->create.errors, 0u);

  workload::IorConfig ior;
  ior.procs = 2;
  ior.transfer_size = 32 * 1024;
  ior.bytes_per_proc = 256 * 1024;
  auto ior_result = workload::run_ior(adapter, ior);
  ASSERT_TRUE(ior_result.is_ok()) << ior_result.status().to_string();
  EXPECT_EQ(ior_result->write.errors, 0u);

  // daemon_stat triggers the backend gauge publish AND returns the
  // snapshot over the wire.
  auto stats = mnt->client().daemon_stats();
  ASSERT_TRUE(stats.is_ok()) << stats.status().to_string();
  ASSERT_EQ(stats->size(), 3u);

  const auto snap = metrics::Registry::global().snapshot();
  // Client layer.
  EXPECT_GT(snap.counter_or("client.rpcs_sent"), 0u);
  EXPECT_GT(snap.counter_or("client.bytes_written"), 0u);
  EXPECT_GT(snap.counter_or("client.bytes_read"), 0u);
  EXPECT_GT(snap.counter_or("client.stat_cache.misses"), 0u);
  ASSERT_TRUE(snap.histograms.contains("client.write.fanout"));
  EXPECT_GT(snap.histograms.at("client.write.fanout").count, 0u);
  // Engine layer, both sides.
  EXPECT_GT(snap.counter_or("rpc.requests_sent"), 0u);
  EXPECT_GT(snap.counter_or("rpc.requests_handled"), 0u);
  EXPECT_GT(snap.counter_or("rpc.caller.create.sent"), 0u);
  ASSERT_TRUE(snap.histograms.contains("rpc.handler.write_chunks.latency"));
  EXPECT_GT(snap.histograms.at("rpc.handler.write_chunks.latency").count, 0u);
  // Fabric layer.
  EXPECT_GT(snap.counter_or("net.loopback.messages"), 0u);
  EXPECT_GT(snap.counter_or("net.loopback.payload_bytes"), 0u);
  EXPECT_GT(snap.counter_or("net.loopback.bulk_pulled_bytes"), 0u);
  // Daemon service layer.
  EXPECT_GT(snap.counter_or("daemon.create.ops"), 0u);
  EXPECT_GT(snap.counter_or("daemon.write_chunks.ops"), 0u);
  ASSERT_TRUE(snap.histograms.contains("daemon.stat.latency"));
  // Storage + kv internals (published as gauges by daemon_stat).
  EXPECT_GT(snap.gauge_or("storage.chunks_written"), 0);
  EXPECT_GT(snap.gauge_or("kv.puts"), 0);
  EXPECT_GT(snap.gauge_or("kv.wal_appends"), 0);

  // The wire snapshot must decode and carry per-RPC latency digests
  // plus the retry/timeout counters gkfs-top renders.
  for (const auto& resp : *stats) {
    ASSERT_FALSE(resp.metrics_json.empty());
    auto wire = metrics::Snapshot::from_json(resp.metrics_json);
    ASSERT_TRUE(wire.is_ok()) << wire.status().to_string();
    EXPECT_TRUE(wire->counters.contains("rpc.retries"));
    EXPECT_TRUE(wire->counters.contains("rpc.timeouts"));
    bool has_handler_latency = false;
    for (const auto& [name, h] : wire->histograms) {
      if (name.starts_with("rpc.handler.") && name.ends_with(".latency") &&
          h.count > 0) {
        has_handler_latency = true;
        break;
      }
    }
    EXPECT_TRUE(has_handler_latency) << resp.metrics_json;
  }
}

class GkfsTopTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("gekko_top_" + std::to_string(::getpid()));
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::filesystem::path dir_;
};

TEST_F(GkfsTopTest, RendersPerNodeTableForRealDaemonProcesses) {
  // Launch TWO real gkfsd processes from a hostfile, generate load,
  // then run the real gkfs-top binary single-shot and check it renders
  // one populated row per node.
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
      // Node 1 exercises the --io-threads flag end to end.
      if (id == 1) {
        ::execl(GKFSD_BIN, "gkfsd", hostfile->c_str(), id_str.c_str(),
                root.c_str(), "8192", "--io-threads", "2",
                static_cast<char*>(nullptr));
      } else {
        ::execl(GKFSD_BIN, "gkfsd", hostfile->c_str(), id_str.c_str(),
                root.c_str(), "8192", static_cast<char*>(nullptr));
      }
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

  {
    auto client_fabric = net::StreamFabric::create(*hostfile, {});
    ASSERT_TRUE(client_fabric.is_ok());
    client::ClientOptions copts;
    copts.chunk_size = 8192;
    fs::Mount mnt(**client_fabric, {0, 1}, copts);
    std::vector<std::uint8_t> payload(40000, 0xAB);
    for (int i = 0; i < 6; ++i) {
      const std::string p = "/top/file" + std::to_string(i);
      auto fd = mnt.open(p, fs::create | fs::rd_wr);
      ASSERT_TRUE(fd.is_ok()) << fd.status().to_string();
      ASSERT_TRUE(mnt.pwrite(*fd, payload, 0).is_ok());
      ASSERT_TRUE(mnt.close(*fd).is_ok());
    }
  }

  const std::string cmd = std::string(GKFS_TOP_BIN) + " " +
                          hostfile->string() + " 0 1 2>&1";
  FILE* pipe = ::popen(cmd.c_str(), "r");
  ASSERT_NE(pipe, nullptr);
  std::string output;
  char buf[512];
  while (std::fgets(buf, sizeof(buf), pipe) != nullptr) output += buf;
  const int rc = ::pclose(pipe);
  EXPECT_EQ(rc, 0) << output;

  EXPECT_NE(output.find("node"), std::string::npos) << output;
  EXPECT_NE(output.find("ops/s"), std::string::npos) << output;
  EXPECT_EQ(output.find("down"), std::string::npos) << output;
  // One row per daemon, each reporting served ops.
  int rows = 0;
  std::size_t pos = 0;
  while ((pos = output.find('\n', pos)) != std::string::npos) {
    ++pos;
    if (output.compare(pos, 2, "0 ") == 0 ||
        output.compare(pos, 2, "1 ") == 0) {
      ++rows;
    }
  }
  EXPECT_GE(rows, 2) << output;

  // The io-pool/fd-cache families ride the same daemon_stat snapshot
  // gkfs-top consumes; growing it must not have broken the table above,
  // and the new families must survive the JSON round trip per node.
  {
    auto probe_fabric = net::StreamFabric::create(*hostfile, {});
    ASSERT_TRUE(probe_fabric.is_ok());
    rpc::Engine probe(**probe_fabric, {.name = "probe"});
    for (std::uint32_t id = 0; id < kDaemons; ++id) {
      auto r = probe.forward(id, proto::to_wire(proto::RpcId::daemon_stat),
                             {});
      ASSERT_TRUE(r.is_ok()) << r.status().to_string();
      auto resp = proto::DaemonStatResponse::decode(std::string_view(
          reinterpret_cast<const char*>(r->data()), r->size()));
      ASSERT_TRUE(resp.is_ok());
      auto snap = metrics::Snapshot::from_json(resp->metrics_json);
      ASSERT_TRUE(snap.is_ok()) << resp->metrics_json;
      // Snapshots from a real daemon are stamped with the node that
      // captured them and a monotonic capture time.
      EXPECT_EQ(snap->node_id, id);
      EXPECT_GT(snap->captured_ns, 0u);
      for (const char* g :
           {"storage.fd_cache.hits", "storage.fd_cache.misses",
            "storage.fd_cache.evictions", "storage.fd_cache.open"}) {
        EXPECT_TRUE(snap->gauges.count(g)) << "node " << id << " missing "
                                           << g;
      }
      // Both nodes wrote chunks through the io pool.
      const auto it = snap->histograms.find("daemon.io.service");
      ASSERT_NE(it, snap->histograms.end()) << "node " << id;
      EXPECT_GT(it->second.count, 0u) << "node " << id;
      EXPECT_GT(snap->gauge_or("storage.fd_cache.misses"), 0) << "node "
                                                              << id;
    }
  }

  for (const pid_t pid : children) {
    ::kill(pid, SIGKILL);
    int status = 0;
    ::waitpid(pid, &status, 0);
  }
}

}  // namespace
}  // namespace gekko

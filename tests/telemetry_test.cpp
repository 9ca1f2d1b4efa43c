// Telemetry-stack tests: rate helpers and sample rings, the Sampler,
// the health::Tracker liveness state machine, HeartbeatMonitor under
// injected faults (alive -> suspect -> dead -> alive), the heartbeat /
// metric_history RPCs through a real daemon, Prometheus render/parse
// round trips (with strict-parser rejection cases), the /metrics HTTP
// endpoint, and gkfs-mon against real forked gkfsd processes.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "client/client.h"
#include "common/health.h"
#include "common/metrics.h"
#include "common/metrics_history.h"
#include "common/prometheus.h"
#include "daemon/daemon.h"
#include "net/fabric.h"
#include "net/http_exporter.h"
#include "net/stream_fabric.h"
#include "proto/messages.h"
#include "rpc/engine.h"
#include "rpc/heartbeat.h"

namespace gekko {
namespace {

using namespace std::chrono_literals;

/// Occurrences of `needle` in `haystack`.
int count_of(const std::string& haystack, std::string_view needle) {
  int n = 0;
  std::size_t pos = 0;
  while ((pos = haystack.find(needle, pos)) != std::string::npos) {
    ++n;
    pos += needle.size();
  }
  return n;
}

// ---------- rate helpers ----------

TEST(RateHelpersTest, ComputesPerSecondRate) {
  const metrics::SamplePoint prev{1'000'000'000, 100};
  const metrics::SamplePoint cur{3'000'000'000, 700};  // +600 over 2 s
  EXPECT_DOUBLE_EQ(metrics::rate_per_sec(prev, cur), 300.0);
  EXPECT_EQ(metrics::monotonic_delta(prev, cur), 600u);
}

TEST(RateHelpersTest, CounterResetYieldsZeroNotNegativeSpike) {
  // The producing daemon restarted: the counter went backwards. The
  // rate for that interval is 0, never a huge negative value.
  const metrics::SamplePoint prev{1'000'000'000, 5'000'000};
  const metrics::SamplePoint cur{2'000'000'000, 3};
  EXPECT_DOUBLE_EQ(metrics::rate_per_sec(prev, cur), 0.0);
  EXPECT_EQ(metrics::monotonic_delta(prev, cur), 0u);
  EXPECT_EQ(metrics::monotonic_delta(std::uint64_t{900}, std::uint64_t{7}),
            0u);
}

TEST(RateHelpersTest, NonAdvancingClockYieldsZero) {
  const metrics::SamplePoint prev{1'000'000'000, 100};
  const metrics::SamplePoint same_clock{1'000'000'000, 900};
  EXPECT_DOUBLE_EQ(metrics::rate_per_sec(prev, same_clock), 0.0);
  // A clock going backwards (shouldn't happen on a steady clock, but
  // defend anyway) is also 0.
  const metrics::SamplePoint earlier{500'000'000, 900};
  EXPECT_DOUBLE_EQ(metrics::rate_per_sec(prev, earlier), 0.0);
}

// ---------- ring wrap accounting ----------

TEST(FamilyHistoryTest, WrapAccountingMirrorsTraceRing) {
  metrics::FamilyHistory ring(4);
  for (std::uint64_t i = 0; i < 6; ++i) {
    ring.append({i * 1'000'000'000, static_cast<std::int64_t>(i * 10)});
  }
  // recorded counts every append; size is what the ring still holds.
  EXPECT_EQ(ring.recorded(), 6u);
  EXPECT_EQ(ring.capacity(), 4u);
  EXPECT_EQ(ring.size(), 4u);
  const auto samples = ring.samples();
  ASSERT_EQ(samples.size(), 4u);
  // Oldest first, and the two oldest appends were overwritten.
  EXPECT_EQ(samples.front().value, 20);
  EXPECT_EQ(samples.back().value, 50);
  EXPECT_EQ(ring.back().value, 50);
  EXPECT_EQ(ring.back(1).value, 40);
  EXPECT_DOUBLE_EQ(ring.latest_rate(), 10.0);
}

TEST(FamilyHistoryTest, WindowRateSurvivesMidWindowReset) {
  metrics::FamilyHistory ring(8);
  ring.append({1'000'000'000, 100});
  ring.append({2'000'000'000, 200});  // +100
  ring.append({3'000'000'000, 10});   // reset: contributes 0
  ring.append({4'000'000'000, 110});  // +100
  // 200 across the 3 s window; the reset interval contributes 0.
  EXPECT_NEAR(ring.window_rate(), 200.0 / 3.0, 1e-9);
}

// ---------- History + Sampler ----------

TEST(HistoryTest, FoldsSnapshotsAndFiltersByPrefix) {
  metrics::Registry reg;
  auto& ops = reg.counter("rpc.requests_handled");
  auto& lat = reg.histogram("rpc.handler.stat.latency");
  reg.gauge("kv.live_keys").set(3);

  metrics::Sampler sampler(reg, {.interval_ms = 0, .retention = 16});
  ops.inc(100);
  lat.record(1000);
  sampler.sample_once();
  ops.inc(100);
  lat.record(2000);
  sampler.sample_once();
  EXPECT_EQ(sampler.ticks(), 2u);

  const auto rpc_only = sampler.history().families("rpc.");
  EXPECT_TRUE(rpc_only.count("rpc.requests_handled"));
  // Histograms fold into derived monotonic .count/.sum families.
  EXPECT_TRUE(rpc_only.count("rpc.handler.stat.latency.count"));
  EXPECT_TRUE(rpc_only.count("rpc.handler.stat.latency.sum"));
  EXPECT_FALSE(rpc_only.count("kv.live_keys"));
  const auto all = sampler.history().families();
  EXPECT_TRUE(all.count("kv.live_keys"));

  const auto fam = sampler.history().family("rpc.requests_handled");
  ASSERT_EQ(fam.samples.size(), 2u);
  EXPECT_EQ(fam.recorded, 2u);
  EXPECT_EQ(fam.samples[0].value, 100);
  EXPECT_EQ(fam.samples[1].value, 200);
  EXPECT_GT(sampler.history().latest_rate("rpc.requests_handled"), 0.0);
}

TEST(SamplerTest, BackgroundThreadTicksAndStops) {
  metrics::Registry reg;
  reg.counter("x.total").inc();
  metrics::Sampler sampler(reg, {.interval_ms = 10, .retention = 64});
  sampler.start();
  for (int i = 0; i < 200 && sampler.ticks() < 3; ++i) {
    std::this_thread::sleep_for(5ms);
  }
  sampler.stop();
  EXPECT_GE(sampler.ticks(), 3u);
  EXPECT_GE(sampler.history().family("x.total").samples.size(), 3u);
  sampler.stop();  // idempotent
}

TEST(SamplerTest, EnvKnobParsesAndRejectsGarbage) {
  ::setenv("GEKKO_SAMPLE_MS", "250", 1);
  EXPECT_EQ(metrics::sample_interval_ms_from_env(1000), 250u);
  ::setenv("GEKKO_SAMPLE_MS", "bogus", 1);
  EXPECT_EQ(metrics::sample_interval_ms_from_env(1000), 1000u);
  ::unsetenv("GEKKO_SAMPLE_MS");
  EXPECT_EQ(metrics::sample_interval_ms_from_env(1000), 1000u);

  ::setenv("GEKKO_HEARTBEAT_MS", "125", 1);
  EXPECT_EQ(rpc::heartbeat_interval_ms_from_env(500), 125u);
  ::unsetenv("GEKKO_HEARTBEAT_MS");
  EXPECT_EQ(rpc::heartbeat_interval_ms_from_env(500), 500u);
}

// ---------- health tracker ----------

TEST(HealthTrackerTest, AliveSuspectDeadTransitions) {
  metrics::Registry reg;
  health::Tracker tracker({.suspect_after = 2, .dead_after = 4}, &reg);
  tracker.track(7);
  EXPECT_EQ(tracker.state_of(7), health::State::alive);

  // Misses count consecutively: 2 -> suspect, 4 total -> dead.
  EXPECT_EQ(tracker.record_miss(7), health::State::alive);
  EXPECT_EQ(tracker.record_miss(7), health::State::suspect);
  EXPECT_EQ(tracker.record_miss(7), health::State::suspect);
  EXPECT_EQ(tracker.record_miss(7), health::State::dead);
  EXPECT_EQ(tracker.count(health::State::dead), 1u);

  // One good probe is full recovery, from dead straight to alive.
  EXPECT_EQ(tracker.record_ok(7), health::State::alive);
  const auto h = tracker.health_of(7);
  EXPECT_EQ(h.consecutive_misses, 0u);
  EXPECT_EQ(h.probes, 5u);
  EXPECT_EQ(h.transitions, 3u);  // suspect, dead, alive
  EXPECT_GT(h.last_ok_ns, 0u);

  // Transition counters landed in the provided registry.
  const auto snap = reg.snapshot();
  EXPECT_EQ(snap.counter_or("health.transitions.suspect"), 1u);
  EXPECT_EQ(snap.counter_or("health.transitions.dead"), 1u);
  EXPECT_EQ(snap.counter_or("health.transitions.alive"), 1u);
  EXPECT_EQ(snap.gauge_or("health.nodes.alive"), 1);
  EXPECT_EQ(snap.gauge_or("health.nodes.dead"), 0);
}

TEST(HealthTrackerTest, InterruptedMissStreakNeverDemotes) {
  metrics::Registry reg;
  health::Tracker tracker({.suspect_after = 2, .dead_after = 4}, &reg);
  tracker.track(1);
  for (int round = 0; round < 5; ++round) {
    EXPECT_EQ(tracker.record_miss(1), health::State::alive);
    EXPECT_EQ(tracker.record_ok(1), health::State::alive);
  }
  EXPECT_EQ(tracker.health_of(1).transitions, 0u);
}

TEST(HealthTrackerTest, DegenerateThresholdsAreClamped) {
  metrics::Registry reg;
  // dead_after <= suspect_after would make suspect unreachable.
  health::Tracker tracker({.suspect_after = 3, .dead_after = 2}, &reg);
  EXPECT_GT(tracker.thresholds().dead_after, tracker.thresholds().suspect_after);
}

// ---------- heartbeat monitor under injected faults ----------

class HeartbeatTest : public ::testing::Test {
 protected:
  void SetUp() override {
    rpc::EngineOptions sopts;
    sopts.name = "hb-server";
    sopts.registry = &registry_;
    sopts.rpc_name = proto::rpc_name;
    server_ = std::make_unique<rpc::Engine>(fabric_, sopts);
    ASSERT_EQ(server_->endpoint(), 0u);
    server_->register_rpc(
        proto::to_wire(proto::RpcId::heartbeat), "heartbeat",
        [](const net::Message&) {
          proto::HeartbeatResponse resp;
          resp.node_id = 0;
          resp.capture_ns = metrics::now_ns();
          resp.requests_handled = 42;
          return Result<std::vector<std::uint8_t>>(resp.encode());
        });

    rpc::EngineOptions copts;
    copts.name = "hb-client";
    copts.registry = &registry_;
    copts.rpc_name = proto::rpc_name;
    client_ = std::make_unique<rpc::Engine>(fabric_, copts);
  }

  /// Drop heartbeat REQUESTS on the wire (the daemon never sees them —
  /// indistinguishable from a dead node, which is the point).
  void drop_heartbeats() {
    fabric_.set_fault_injector(std::make_shared<net::CallbackFaultInjector>(
        [](net::EndpointId dest, const net::Message& msg) {
          net::FaultAction a;
          if (dest == 0 && msg.kind == net::MessageKind::request &&
              msg.rpc_id == proto::to_wire(proto::RpcId::heartbeat)) {
            a.drop = true;
          }
          return a;
        }));
  }

  void heal() { fabric_.set_fault_injector(nullptr); }

  metrics::Registry registry_;
  net::LoopbackFabric fabric_;
  std::unique_ptr<rpc::Engine> server_;
  std::unique_ptr<rpc::Engine> client_;
};

TEST_F(HeartbeatTest, ProbeRoundsDriveLivenessTransitions) {
  rpc::HeartbeatOptions opts;
  opts.interval_ms = 0;  // probe_now() only
  opts.probe_timeout = 50ms;
  opts.thresholds = {.suspect_after = 2, .dead_after = 4};
  rpc::HeartbeatMonitor monitor(*client_, {0}, opts);

  EXPECT_EQ(monitor.probe_now(), 1u);
  EXPECT_EQ(monitor.tracker().state_of(0), health::State::alive);
  const auto last = monitor.last_response(0);
  ASSERT_TRUE(last.has_value());
  EXPECT_EQ(last->requests_handled, 42u);

  // Drop probes: 2 misses -> suspect, 4 -> dead.
  drop_heartbeats();
  EXPECT_EQ(monitor.probe_now(), 0u);
  EXPECT_EQ(monitor.probe_now(), 0u);
  EXPECT_EQ(monitor.tracker().state_of(0), health::State::suspect);
  EXPECT_EQ(monitor.probe_now(), 0u);
  EXPECT_EQ(monitor.probe_now(), 0u);
  EXPECT_EQ(monitor.tracker().state_of(0), health::State::dead);

  // Network heals (daemon restarted): first good probe is recovery.
  heal();
  EXPECT_EQ(monitor.probe_now(), 1u);
  EXPECT_EQ(monitor.tracker().state_of(0), health::State::alive);
  EXPECT_EQ(monitor.rounds(), 6u);

  const auto snap = registry_.snapshot();
  EXPECT_EQ(snap.counter_or("rpc.heartbeat.probes"), 6u);
  EXPECT_EQ(snap.counter_or("rpc.heartbeat.misses"), 4u);
}

TEST_F(HeartbeatTest, DelayedResponsesBeyondDeadlineAreMisses) {
  rpc::HeartbeatOptions opts;
  opts.interval_ms = 0;
  opts.probe_timeout = 30ms;
  opts.thresholds = {.suspect_after = 1, .dead_after = 2};
  rpc::HeartbeatMonitor monitor(*client_, {0}, opts);

  fabric_.set_fault_injector(std::make_shared<net::CallbackFaultInjector>(
      [](net::EndpointId, const net::Message& msg) {
        net::FaultAction a;
        if (msg.kind == net::MessageKind::response) a.delay = 120ms;
        return a;
      }));
  EXPECT_EQ(monitor.probe_now(), 0u);
  EXPECT_EQ(monitor.tracker().state_of(0), health::State::suspect);
  heal();
  // The late response from the timed-out probe must not corrupt the
  // next round.
  std::this_thread::sleep_for(150ms);
  EXPECT_EQ(monitor.probe_now(), 1u);
  EXPECT_EQ(monitor.tracker().state_of(0), health::State::alive);
}

TEST_F(HeartbeatTest, BackgroundProberRunsRounds) {
  rpc::HeartbeatOptions opts;
  opts.interval_ms = 10;
  opts.probe_timeout = 50ms;
  rpc::HeartbeatMonitor monitor(*client_, {0}, opts);
  monitor.start();
  for (int i = 0; i < 200 && monitor.rounds() < 3; ++i) {
    std::this_thread::sleep_for(5ms);
  }
  monitor.stop();
  EXPECT_GE(monitor.rounds(), 3u);
  EXPECT_EQ(monitor.tracker().state_of(0), health::State::alive);
  monitor.stop();  // idempotent
}

// ---------- heartbeat + metric_history through a real daemon ----------

TEST(DaemonTelemetryRpcTest, HeartbeatAndHistoryRoundTrip) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("gekko_telemetry_rpc_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  net::LoopbackFabric fabric;
  daemon::DaemonOptions dopts;
  dopts.kv_options.background_compaction = false;
  dopts.sample_interval_ms = 20;  // fast sampler for the test
  dopts.sample_retention = 32;
  auto daemon = daemon::GekkoDaemon::start(fabric, dir, dopts);
  ASSERT_TRUE(daemon.is_ok()) << daemon.status().to_string();

  client::Client client(fabric, {0});
  // Generate traffic so counters move between sampler ticks.
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(
        client.create("/hb" + std::to_string(i), proto::FileType::regular)
            .is_ok());
  }

  auto beats = client.heartbeats(500ms);
  ASSERT_EQ(beats.size(), 1u);
  ASSERT_TRUE(beats[0].has_value());
  EXPECT_EQ(beats[0]->node_id, 0u);
  EXPECT_GT(beats[0]->capture_ns, 0u);
  EXPECT_GT(beats[0]->requests_handled, 0u);

  // Let the sampler take at least two ticks, then drain the rings.
  for (int i = 0; i < 200 && (*daemon)->sampler().ticks() < 2; ++i) {
    std::this_thread::sleep_for(5ms);
  }
  ASSERT_GE((*daemon)->sampler().ticks(), 2u);
  auto hists = client.metric_histories("rpc.", 500ms);
  ASSERT_EQ(hists.size(), 1u);
  ASSERT_TRUE(hists[0].has_value());
  EXPECT_EQ(hists[0]->node_id, 0u);
  EXPECT_EQ(hists[0]->interval_ms, 20u);
  ASSERT_FALSE(hists[0]->families.empty());
  bool found_ops = false;
  for (const auto& fam : hists[0]->families) {
    EXPECT_TRUE(fam.name.rfind("rpc.", 0) == 0) << fam.name;
    EXPECT_GT(fam.capacity, 0u);
    EXPECT_GE(fam.recorded, fam.samples.size());
    if (fam.name == "rpc.requests_handled" && fam.samples.size() >= 2) {
      found_ops = true;
      EXPECT_GT(fam.samples.back().second, 0);
    }
  }
  EXPECT_TRUE(found_ops);

  (*daemon)->shutdown();
  std::filesystem::remove_all(dir);
}

// ---------- Prometheus exposition ----------

TEST(PrometheusTest, MangleRewritesDotsAndPrefixes) {
  EXPECT_EQ(prom::mangle("rpc.caller.stat.sent"),
            "gekko_rpc_caller_stat_sent");
  EXPECT_EQ(prom::mangle("gekko_already_prefixed"), "gekko_already_prefixed");
  EXPECT_EQ(prom::mangle("weird-name:x"), "gekko_weird_name_x");
}

TEST(PrometheusTest, RenderParseRoundTrip) {
  metrics::Registry reg;
  reg.counter("test.requests").inc(3);
  reg.gauge("test.depth").set(-7);
  auto& lat = reg.histogram("test.latency");
  for (int i = 1; i <= 100; ++i) lat.record(static_cast<std::uint64_t>(i));

  const std::string text =
      prom::render(reg, {.labels = {{"node", "0"}}});
  auto expo = prom::parse(text);
  ASSERT_TRUE(expo.is_ok()) << expo.status().to_string() << "\n" << text;

  const auto* counter = expo->find("gekko_test_requests");
  ASSERT_NE(counter, nullptr);
  EXPECT_EQ(counter->type, prom::FamilyType::counter);
  EXPECT_DOUBLE_EQ(expo->value_or("gekko_test_requests"), 3.0);
  ASSERT_FALSE(counter->samples.empty());
  EXPECT_EQ(counter->samples[0].labels.at("node"), "0");

  const auto* gauge = expo->find("gekko_test_depth");
  ASSERT_NE(gauge, nullptr);
  EXPECT_EQ(gauge->type, prom::FamilyType::gauge);
  EXPECT_DOUBLE_EQ(expo->value_or("gekko_test_depth"), -7.0);

  const auto* hist = expo->find("gekko_test_latency");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->type, prom::FamilyType::histogram);
  double count = -1.0;
  double sum = -1.0;
  double inf_bucket = -1.0;
  double prev_bucket = 0.0;
  int buckets = 0;
  for (const auto& s : hist->samples) {
    if (s.name == "gekko_test_latency_count") count = s.value;
    if (s.name == "gekko_test_latency_sum") sum = s.value;
    if (s.name == "gekko_test_latency_bucket") {
      ++buckets;
      // Cumulative: each bucket >= the previous one.
      EXPECT_GE(s.value, prev_bucket);
      prev_bucket = s.value;
      if (s.labels.at("le") == "+Inf") inf_bucket = s.value;
    }
  }
  EXPECT_GT(buckets, 1);
  EXPECT_DOUBLE_EQ(count, 100.0);
  EXPECT_DOUBLE_EQ(inf_bucket, 100.0);
  EXPECT_DOUBLE_EQ(sum, 5050.0);
}

TEST(PrometheusTest, StrictParserRejectsMalformedInput) {
  const char* bad[] = {
      // Sample with no preceding # TYPE.
      "gekko_x 1\n",
      // Duplicate TYPE for one family.
      "# TYPE gekko_x counter\n# TYPE gekko_x counter\ngekko_x 1\n",
      // Unknown type keyword.
      "# TYPE gekko_x wat\ngekko_x 1\n",
      // Garbage value.
      "# TYPE gekko_x counter\ngekko_x abc\n",
      // Trailing junk after the value.
      "# TYPE gekko_x counter\ngekko_x 1 junk\n",
      // Unterminated label value.
      "# TYPE gekko_x counter\ngekko_x{a=\"b 1\n",
      // Duplicate label name.
      "# TYPE gekko_x counter\ngekko_x{a=\"1\",a=\"2\"} 1\n",
      // Histogram: non-cumulative buckets.
      "# TYPE gekko_h histogram\n"
      "gekko_h_bucket{le=\"10\"} 5\n"
      "gekko_h_bucket{le=\"20\"} 3\n"
      "gekko_h_bucket{le=\"+Inf\"} 5\n"
      "gekko_h_sum 40\ngekko_h_count 5\n",
      // Histogram: +Inf bucket missing.
      "# TYPE gekko_h histogram\n"
      "gekko_h_bucket{le=\"10\"} 5\n"
      "gekko_h_sum 40\ngekko_h_count 5\n",
      // Histogram: +Inf disagrees with _count.
      "# TYPE gekko_h histogram\n"
      "gekko_h_bucket{le=\"10\"} 5\n"
      "gekko_h_bucket{le=\"+Inf\"} 5\n"
      "gekko_h_sum 40\ngekko_h_count 9\n",
  };
  for (const char* doc : bad) {
    auto r = prom::parse(doc);
    EXPECT_FALSE(r.is_ok()) << "accepted:\n" << doc;
    // Errors carry a line number so CI failures point at the culprit.
    EXPECT_NE(r.status().to_string().find("line"), std::string::npos)
        << r.status().to_string();
  }
  // And the benign edges stay accepted: HELP comments, untyped,
  // +Inf/-Inf/NaN-free empty families, escaped label values.
  const char* good =
      "# HELP gekko_x something\n"
      "# TYPE gekko_x counter\n"
      "gekko_x{path=\"a\\\\b\\\"c\\nd\"} 1\n"
      "# TYPE gekko_empty histogram\n"
      "gekko_empty_bucket{le=\"+Inf\"} 0\n"
      "gekko_empty_sum 0\n"
      "gekko_empty_count 0\n"
      "# TYPE gekko_u untyped\n"
      "gekko_u 4.5e3\n";
  auto r = prom::parse(good);
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  EXPECT_DOUBLE_EQ(r->value_or("gekko_u"), 4500.0);
}

// ---------- HTTP exporter ----------

/// Raw HTTP/1.0-style fetch against 127.0.0.1:port. Returns the full
/// response (status line + headers + body).
std::string http_fetch(std::uint16_t port, const std::string& request) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  EXPECT_EQ(::send(fd, request.data(), request.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(request.size()));
  std::string out;
  char buf[4096];
  ssize_t n = 0;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    out.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return out;
}

TEST(HttpExporterTest, ServesMetricsParsableByStrictParser) {
  metrics::Registry reg;
  reg.counter("http.test.hits").inc(9);
  reg.histogram("http.test.lat").record(1234);

  net::HttpExporterOptions opts;
  opts.port = 0;
  opts.registry = &reg;
  auto exporter = net::HttpExporter::create(
      opts, [&reg](const std::string& path) {
        net::HttpResponse resp;
        if (path == "/metrics") {
          resp.body = prom::render(reg, {.labels = {{"node", "3"}}});
        } else if (path == "/healthz") {
          resp.content_type = "text/plain";
          resp.body = "ok\n";
        } else {
          resp.status = 404;
          resp.body = "not found\n";
        }
        return resp;
      });
  ASSERT_TRUE(exporter.is_ok()) << exporter.status().to_string();
  const std::uint16_t port = (*exporter)->port();
  ASSERT_GT(port, 0u);

  const std::string raw = http_fetch(
      port, "GET /metrics HTTP/1.1\r\nHost: localhost\r\n\r\n");
  EXPECT_NE(raw.find("HTTP/1.1 200"), std::string::npos) << raw;
  EXPECT_NE(raw.find("Connection: close"), std::string::npos);
  const auto body_at = raw.find("\r\n\r\n");
  ASSERT_NE(body_at, std::string::npos);
  auto expo = prom::parse(raw.substr(body_at + 4));
  ASSERT_TRUE(expo.is_ok()) << expo.status().to_string();
  EXPECT_DOUBLE_EQ(expo->value_or("gekko_http_test_hits"), 9.0);
  const auto* hist = expo->find("gekko_http_test_lat");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->type, prom::FamilyType::histogram);

  // Query strings are stripped; unknown paths 404; non-GET 405; HEAD
  // carries headers but no body.
  EXPECT_NE(http_fetch(port, "GET /healthz?probe=1 HTTP/1.1\r\n\r\n")
                .find("ok\n"),
            std::string::npos);
  EXPECT_NE(http_fetch(port, "GET /nope HTTP/1.1\r\n\r\n").find("404"),
            std::string::npos);
  EXPECT_NE(http_fetch(port, "POST /metrics HTTP/1.1\r\n\r\n").find("405"),
            std::string::npos);
  const std::string head = http_fetch(port, "HEAD /healthz HTTP/1.1\r\n\r\n");
  EXPECT_NE(head.find("200"), std::string::npos);
  EXPECT_EQ(head.find("ok\n"), std::string::npos);

  // Scrape traffic is itself metered.
  EXPECT_GE(reg.snapshot().counter_or("net.http.requests"), 5u);
  (*exporter)->stop();
}

// ---------- e2e: real gkfsd processes + gkfs-mon ----------

class GkfsMonTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("gekko_mon_" + std::to_string(::getpid()));
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    for (const pid_t pid : children_) {
      ::kill(pid, SIGKILL);
      int status = 0;
      ::waitpid(pid, &status, 0);
    }
    std::filesystem::remove_all(dir_);
  }

  pid_t spawn_daemon(const std::filesystem::path& hostfile, std::uint32_t id,
                     const char* extra_flag = nullptr,
                     const char* extra_value = nullptr) {
    const pid_t pid = ::fork();
    if (pid == 0) {
      const std::string root = (dir_ / ("node" + std::to_string(id))).string();
      const std::string id_str = std::to_string(id);
      const std::string log =
          (dir_ / ("gkfsd." + std::to_string(id) + ".log")).string();
      // Daemon diagnostics (including the metrics-port line) go to a
      // per-daemon log the parent can parse.
      FILE* f = std::freopen(log.c_str(), "w", stderr);
      (void)f;
      ::setvbuf(stderr, nullptr, _IONBF, 0);
      if (extra_flag != nullptr) {
        ::execl(GKFSD_BIN, "gkfsd", hostfile.c_str(), id_str.c_str(),
                root.c_str(), "8192", extra_flag, extra_value,
                static_cast<char*>(nullptr));
      } else {
        ::execl(GKFSD_BIN, "gkfsd", hostfile.c_str(), id_str.c_str(),
                root.c_str(), "8192", static_cast<char*>(nullptr));
      }
      ::_exit(12);
    }
    children_.push_back(pid);
    return pid;
  }

  void wait_for_socket(std::uint32_t id) {
    const auto sock = dir_ / ("gkfsd." + std::to_string(id) + ".sock");
    for (int i = 0; i < 250 && !std::filesystem::exists(sock); ++i) {
      ::usleep(20 * 1000);
    }
    ASSERT_TRUE(std::filesystem::exists(sock)) << sock;
  }

  /// Run a command via popen; returns {exit code, combined output}.
  static std::pair<int, std::string> run(const std::string& cmd) {
    FILE* pipe = ::popen((cmd + " 2>&1").c_str(), "r");
    EXPECT_NE(pipe, nullptr);
    std::string output;
    char buf[512];
    while (std::fgets(buf, sizeof(buf), pipe) != nullptr) output += buf;
    const int status = ::pclose(pipe);
    return {WIFEXITED(status) ? WEXITSTATUS(status) : -1, output};
  }

  std::filesystem::path dir_;
  std::vector<pid_t> children_;
};

TEST_F(GkfsMonTest, DetectsDeadDaemonAndRecovery) {
  constexpr std::uint32_t kDaemons = 2;
  auto hostfile =
      net::StreamFabric::write_hostfile(dir_, kDaemons, net::Transport::uds);
  ASSERT_TRUE(hostfile.is_ok());
  spawn_daemon(*hostfile, 0);
  const pid_t victim = spawn_daemon(*hostfile, 1);
  wait_for_socket(0);
  wait_for_socket(1);

  const std::string mon = GKFS_MON_BIN;
  const std::string base =
      mon + " " + hostfile->string() + " 0 ";  // interval 0

  // Healthy cluster: both alive, no dead, alert does not fire.
  {
    auto [rc, out] = run(base + "1 --json --alert 'dead>0'");
    EXPECT_EQ(rc, 0) << out;
    EXPECT_EQ(count_of(out, "\"state\":\"alive\""), 2) << out;
    EXPECT_NE(out.find("\"dead\":0.000"), std::string::npos) << out;
  }

  // Kill daemon 1: within dead_after consecutive missed probes the
  // monitor must flip it to dead, and the CI alert must fire (exit 3).
  ::kill(victim, SIGKILL);
  {
    int status = 0;
    ::waitpid(victim, &status, 0);
    children_.erase(std::find(children_.begin(), children_.end(), victim));
  }
  {
    auto [rc, out] = run(base +
                         "6 --json --suspect-after 2 --dead-after 4 "
                         "--probe-timeout-ms 200 --alert 'dead>0'");
    EXPECT_EQ(rc, 3) << out;
    EXPECT_NE(out.find("\"state\":\"dead\""), std::string::npos) << out;
    EXPECT_NE(out.find("\"state\":\"alive\""), std::string::npos) << out;
    EXPECT_NE(out.find("ALERT dead>0"), std::string::npos) << out;
  }

  // Restart daemon 1: one good probe round is recovery.
  spawn_daemon(*hostfile, 1);
  wait_for_socket(1);
  {
    auto [rc, out] = run(base + "1 --json --alert 'dead>0'");
    EXPECT_EQ(rc, 0) << out;
    EXPECT_EQ(count_of(out, "\"state\":\"alive\""), 2) << out;
  }

  // Human-readable mode renders the table header and a cluster line.
  {
    auto [rc, out] = run(mon + " " + hostfile->string() + " 0 1");
    EXPECT_EQ(rc, 0) << out;
    EXPECT_NE(out.find("state"), std::string::npos);
    EXPECT_NE(out.find("cluster: alive=2"), std::string::npos) << out;
  }

  // Bad alert rules are usage errors, not silent successes.
  {
    auto [rc, out] = run(base + "1 --alert 'nonsense'");
    EXPECT_EQ(rc, 2) << out;
  }
}

TEST_F(GkfsMonTest, MetricsPortServesStrictlyParsablePrometheus) {
  auto hostfile =
      net::StreamFabric::write_hostfile(dir_, 1, net::Transport::uds);
  ASSERT_TRUE(hostfile.is_ok());
  // Ephemeral port: the daemon prints the bound port to its log.
  spawn_daemon(*hostfile, 0, "--metrics-port", "0");
  wait_for_socket(0);

  // Drive real load so handler histograms are occupied.
  {
    auto client_fabric = net::StreamFabric::create(*hostfile, {});
    ASSERT_TRUE(client_fabric.is_ok());
    client::Client client(**client_fabric, {0});
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE(
          client.create("/m" + std::to_string(i), proto::FileType::regular)
              .is_ok());
    }
  }

  // Parse "gkfsd: metrics-port 0 <port>" from the daemon log.
  const auto log = dir_ / "gkfsd.0.log";
  int port = 0;
  for (int i = 0; i < 250 && port == 0; ++i) {
    std::string text;
    if (FILE* f = std::fopen(log.c_str(), "r")) {
      char buf[512];
      while (std::fgets(buf, sizeof(buf), f) != nullptr) text += buf;
      std::fclose(f);
    }
    const auto at = text.find("metrics-port 0 ");
    if (at != std::string::npos) {
      port = std::atoi(text.c_str() + at + std::strlen("metrics-port 0 "));
    }
    if (port == 0) ::usleep(20 * 1000);
  }
  ASSERT_GT(port, 0) << "daemon never reported its metrics port";

  const std::string raw = http_fetch(
      static_cast<std::uint16_t>(port),
      "GET /metrics HTTP/1.1\r\nHost: localhost\r\n\r\n");
  ASSERT_NE(raw.find("HTTP/1.1 200"), std::string::npos) << raw;
  const auto body_at = raw.find("\r\n\r\n");
  ASSERT_NE(body_at, std::string::npos);
  auto expo = prom::parse(raw.substr(body_at + 4));
  ASSERT_TRUE(expo.is_ok()) << expo.status().to_string();

  // The daemon's own families arrive mangled, typed, node-labelled,
  // with occupied cumulative _bucket series for the handler latencies.
  EXPECT_GT(expo->value_or("gekko_rpc_requests_handled"), 0.0);
  bool histogram_with_buckets = false;
  for (const auto& [name, family] : expo->families) {
    if (family.type != prom::FamilyType::histogram) continue;
    for (const auto& s : family.samples) {
      if (s.name == name + "_bucket" && s.labels.count("le") &&
          s.value > 0.0) {
        histogram_with_buckets = true;
        EXPECT_EQ(s.labels.at("node"), "0");
      }
    }
  }
  EXPECT_TRUE(histogram_with_buckets);
}

}  // namespace
}  // namespace gekko

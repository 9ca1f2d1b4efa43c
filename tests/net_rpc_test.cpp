// Fabric and RPC engine tests: delivery, bulk transfer, fault
// injection, handler dispatch, timeouts, concurrent forwards.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <fstream>
#include <string>
#include <thread>

#include "common/lockdep.h"
#include "common/logging.h"
#include "delivery_teardown.h"
#include "net/fabric.h"
#include "rpc/engine.h"
#include "task/future.h"
#include "task/pool.h"

namespace gekko {
namespace {

// Run the suite with the runtime lock-order validator on: daemon/rpc
// paths take several locks per request, so inversions abort here.
const bool kLockdepOn = [] {
  gekko::lockdep::set_enabled(true);
  return true;
}();

// Drops every message towards `victim` (a crashed daemon).
std::shared_ptr<net::FaultInjector> blackhole(net::EndpointId victim) {
  return std::make_shared<net::CallbackFaultInjector>(
      [victim](net::EndpointId dest, const net::Message&) {
        return net::FaultAction{.drop = dest == victim};
      });
}

// ---------- fabric ----------

TEST(FabricTest, RegisterSendReceive) {
  net::LoopbackFabric fabric;
  auto [id_a, inbox_a] = fabric.register_endpoint();
  auto [id_b, inbox_b] = fabric.register_endpoint();
  EXPECT_NE(id_a, id_b);
  EXPECT_EQ(fabric.endpoint_count(), 2u);

  net::Message msg;
  msg.rpc_id = 7;
  msg.source = id_a;
  msg.payload = {1, 2, 3};
  ASSERT_TRUE(fabric.send(id_b, std::move(msg)).is_ok());

  auto received = inbox_b->try_receive();
  ASSERT_TRUE(received.has_value());
  EXPECT_EQ(received->rpc_id, 7);
  EXPECT_EQ(received->source, id_a);
  EXPECT_EQ(received->payload, (std::vector<std::uint8_t>{1, 2, 3}));
  EXPECT_FALSE(inbox_a->try_receive().has_value());
}

TEST(FabricTest, SendToUnknownEndpointFails) {
  net::LoopbackFabric fabric;
  EXPECT_EQ(fabric.send(99, net::Message{}).code(), Errc::disconnected);
}

TEST(FabricTest, DeregisteredEndpointRejectsTraffic) {
  net::LoopbackFabric fabric;
  auto [id, inbox] = fabric.register_endpoint();
  fabric.deregister(id);
  EXPECT_EQ(fabric.send(id, net::Message{}).code(), Errc::disconnected);
  EXPECT_FALSE(inbox->receive().has_value());  // closed, drains empty
}

TEST(FabricTest, FifoPerSenderPair) {
  net::LoopbackFabric fabric;
  auto [a, inbox_a] = fabric.register_endpoint();
  (void)inbox_a;
  auto [b, inbox_b] = fabric.register_endpoint();
  for (std::uint64_t i = 0; i < 100; ++i) {
    net::Message m;
    m.seq = i;
    m.source = a;
    ASSERT_TRUE(fabric.send(b, std::move(m)).is_ok());
  }
  for (std::uint64_t i = 0; i < 100; ++i) {
    auto m = inbox_b->try_receive();
    ASSERT_TRUE(m.has_value());
    EXPECT_EQ(m->seq, i);
  }
}

TEST(FabricTest, BlackholeDropsSilently) {
  net::LoopbackFabric fabric;
  auto [a, inbox_a] = fabric.register_endpoint();
  (void)a;
  (void)inbox_a;
  auto [b, inbox_b] = fabric.register_endpoint();
  fabric.set_fault_injector(blackhole(b));
  EXPECT_TRUE(fabric.send(b, net::Message{}).is_ok());  // silent loss
  EXPECT_FALSE(inbox_b->try_receive().has_value());
  EXPECT_EQ(fabric.stats().messages_dropped, 1u);
}

TEST(FabricTest, ProbabilisticDrop) {
  net::LoopbackFabric fabric;
  auto [a, inbox] = fabric.register_endpoint();
  (void)a;
  // Drop one send in four.
  auto sends = std::make_shared<std::uint64_t>(0);
  fabric.set_fault_injector(std::make_shared<net::CallbackFaultInjector>(
      [sends](net::EndpointId, const net::Message&) {
        return net::FaultAction{.drop = ++*sends % 4 == 0};
      }));
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(fabric.send(0, net::Message{}).is_ok());
  }
  const auto stats = fabric.stats();
  EXPECT_EQ(stats.messages_dropped, 25u);
  EXPECT_EQ(stats.messages_sent, 75u);
  int received = 0;
  while (inbox->try_receive().has_value()) ++received;
  EXPECT_EQ(received, 75);
}

TEST(FabricTest, BulkPullPushAndBounds) {
  net::LoopbackFabric fabric;
  std::vector<std::uint8_t> buffer = {10, 20, 30, 40, 50};
  auto region = net::BulkRegion::expose_write(buffer);

  std::vector<std::uint8_t> out(3);
  ASSERT_TRUE(fabric.bulk_pull(region, 1, out).is_ok());
  EXPECT_EQ(out, (std::vector<std::uint8_t>{20, 30, 40}));

  const std::vector<std::uint8_t> in = {77, 88};
  ASSERT_TRUE(fabric.bulk_push(region, 3, in).is_ok());
  EXPECT_EQ(buffer, (std::vector<std::uint8_t>{10, 20, 30, 77, 88}));

  EXPECT_EQ(fabric.bulk_pull(region, 4, out).code(), Errc::overflow);
  EXPECT_EQ(fabric.bulk_push(region, 4, out).code(), Errc::overflow);

  auto ro = net::BulkRegion::expose_read(buffer);
  EXPECT_EQ(fabric.bulk_push(ro, 0, in).code(), Errc::invalid_argument);

  const auto stats = fabric.stats();
  EXPECT_EQ(stats.bulk_bytes_pulled, 3u);
  EXPECT_EQ(stats.bulk_bytes_pushed, 2u);
}

// ---------- task pool / eventual ----------

TEST(TaskPoolTest, ExecutesAllTasks) {
  task::Pool pool(3, "test");
  std::atomic<int> counter{0};
  task::Latch latch(100);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(pool.post([&] {
      counter.fetch_add(1);
      latch.count_down();
    }));
  }
  latch.wait();
  EXPECT_EQ(counter.load(), 100);
  pool.shutdown();
  EXPECT_FALSE(pool.post([] {}));  // rejected after shutdown
  EXPECT_EQ(pool.executed(), 100u);
}

TEST(TaskPoolTest, ShutdownDrainsQueuedTasks) {
  std::atomic<int> counter{0};
  {
    task::Pool pool(1, "drain");
    for (int i = 0; i < 50; ++i) {
      ASSERT_TRUE(pool.post([&] { counter.fetch_add(1); }));
    }
  }  // destructor joins after draining
  EXPECT_EQ(counter.load(), 50);
}

TEST(EventualTest, SetThenWait) {
  task::Eventual<int> ev;
  ev.set(42);
  EXPECT_TRUE(ev.ready());
  EXPECT_EQ(ev.wait(), 42);
}

TEST(EventualTest, CrossThreadHandoff) {
  task::Eventual<std::string> ev;
  std::thread setter([ev] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    ev.set("done");
  });
  EXPECT_EQ(ev.wait(), "done");
  setter.join();
}

TEST(EventualTest, WaitForTimesOut) {
  task::Eventual<int> ev;
  EXPECT_FALSE(ev.wait_for(std::chrono::milliseconds(20)).has_value());
  ev.set(1);  // late set is safe
  EXPECT_EQ(ev.wait_for(std::chrono::milliseconds(20)).value(), 1);
}

// ---------- rpc engine ----------

class RpcTest : public ::testing::Test {
 protected:
  net::LoopbackFabric fabric_;
};

TEST_F(RpcTest, EchoRoundTrip) {
  rpc::Engine server(fabric_, {.name = "server"});
  server.register_rpc(1, "echo", [](const net::Message& msg) {
    return Result<std::vector<std::uint8_t>>(msg.payload);
  });
  rpc::Engine client(fabric_, {.name = "client"});
  auto resp = client.forward(server.endpoint(), 1, {9, 8, 7});
  ASSERT_TRUE(resp.is_ok()) << resp.status().to_string();
  EXPECT_EQ(*resp, (std::vector<std::uint8_t>{9, 8, 7}));
  EXPECT_EQ(server.requests_handled(), 1u);
}

TEST_F(RpcTest, HandlerErrorPropagatesAsStatus) {
  rpc::Engine server(fabric_, {.name = "server"});
  server.register_rpc(2, "fail", [](const net::Message&) {
    return Result<std::vector<std::uint8_t>>(
        Status{Errc::not_found, "nope"});
  });
  rpc::Engine client(fabric_, {.name = "client"});
  auto resp = client.forward(server.endpoint(), 2, {});
  EXPECT_EQ(resp.code(), Errc::not_found);
}

TEST_F(RpcTest, UnknownRpcIdReturnsNotSupported) {
  rpc::Engine server(fabric_, {.name = "server"});
  rpc::Engine client(fabric_, {.name = "client"});
  auto resp = client.forward(server.endpoint(), 42, {});
  EXPECT_EQ(resp.code(), Errc::not_supported);
}

TEST_F(RpcTest, TimeoutOnBlackholedDaemon) {
  rpc::Engine server(fabric_, {.name = "server"});
  server.register_rpc(1, "echo", [](const net::Message& msg) {
    return Result<std::vector<std::uint8_t>>(msg.payload);
  });
  rpc::EngineOptions copts;
  copts.name = "client";
  copts.rpc_timeout = std::chrono::milliseconds(50);
  rpc::Engine client(fabric_, copts);

  fabric_.set_fault_injector(blackhole(server.endpoint()));
  auto resp = client.forward(server.endpoint(), 1, {1});
  EXPECT_EQ(resp.code(), Errc::timed_out);

  // Network heals; the same engine keeps working.
  fabric_.set_fault_injector(nullptr);
  resp = client.forward(server.endpoint(), 1, {1});
  EXPECT_TRUE(resp.is_ok());
}

// A request for an unregistered rpc id is answered not_supported on
// the delivering thread. Every refusal is counted; only the engine's
// first one is logged, so a peer sending unknown ids cannot flood the
// log from a fabric thread.
TEST_F(RpcTest, RefusedRequestsAreCountedAndLoggedOnce) {
  metrics::Registry registry;
  rpc::EngineOptions sopts;
  sopts.name = "refusing-server";
  sopts.registry = &registry;
  rpc::Engine server(fabric_, sopts);
  rpc::Engine client(fabric_, {.name = "client"});
  auto& refused = registry.counter("rpc.requests_refused");
  const std::uint64_t before = refused.value();

  std::atomic<int> warnings{0};
  const log::Level saved_level = log::level();
  log::set_level(log::Level::warn);
  log::set_sink([&warnings](log::Level lvl, std::string_view line) {
    if (lvl == log::Level::warn &&
        line.find("refusing-server") != std::string_view::npos) {
      warnings.fetch_add(1);
    }
  });
  int not_supported = 0;
  for (int i = 0; i < 1000; ++i) {
    if (client.forward(server.endpoint(), 99, {}).code() ==
        Errc::not_supported) {
      ++not_supported;
    }
  }
  log::set_sink(nullptr);
  log::set_level(saved_level);

  EXPECT_EQ(not_supported, 1000);
  EXPECT_EQ(refused.value() - before, 1000u);
  EXPECT_EQ(warnings.load(), 1);
}

TEST_F(RpcTest, ForwardToDeadEngineFails) {
  rpc::Engine client(fabric_, {.name = "client"});
  net::EndpointId dead;
  {
    rpc::Engine server(fabric_, {.name = "server"});
    dead = server.endpoint();
  }
  auto resp = client.forward(dead, 1, {});
  EXPECT_EQ(resp.code(), Errc::disconnected);
}

TEST_F(RpcTest, BulkTransferThroughHandler) {
  rpc::Engine server(fabric_, {.name = "server"});
  net::Fabric* fabric = &fabric_;
  // Handler doubles each byte of the exposed region in place.
  server.register_rpc(
      3, "double",
      [fabric](const net::Message& msg) -> Result<std::vector<std::uint8_t>> {
        std::vector<std::uint8_t> tmp(msg.bulk.size());
        GEKKO_RETURN_IF_ERROR(fabric->bulk_pull(msg.bulk, 0, tmp));
        for (auto& b : tmp) b = static_cast<std::uint8_t>(b * 2);
        GEKKO_RETURN_IF_ERROR(fabric->bulk_push(msg.bulk, 0, tmp));
        return std::vector<std::uint8_t>{};
      });
  rpc::Engine client(fabric_, {.name = "client"});

  std::vector<std::uint8_t> buffer = {1, 2, 3, 4};
  auto resp = client.forward(server.endpoint(), 3, {},
                             net::BulkRegion::expose_write(buffer));
  ASSERT_TRUE(resp.is_ok());
  EXPECT_EQ(buffer, (std::vector<std::uint8_t>{2, 4, 6, 8}));
}

TEST_F(RpcTest, ConcurrentForwardsFromManyThreads) {
  rpc::EngineOptions sopts;
  sopts.name = "server";
  sopts.handler_threads = 4;
  rpc::Engine server(fabric_, sopts);
  std::atomic<std::uint64_t> sum{0};
  server.register_rpc(1, "add", [&sum](const net::Message& msg) {
    sum.fetch_add(msg.payload.empty() ? 0 : msg.payload[0]);
    return Result<std::vector<std::uint8_t>>(std::vector<std::uint8_t>{});
  });
  rpc::Engine client(fabric_, {.name = "client"});

  constexpr int kThreads = 8;
  constexpr int kCallsPerThread = 50;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kCallsPerThread; ++i) {
        auto r = client.forward(server.endpoint(), 1, {1});
        if (!r.is_ok()) failures.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(sum.load(),
            static_cast<std::uint64_t>(kThreads) * kCallsPerThread);
}

TEST_F(RpcTest, PipelinedBeginFinish) {
  rpc::Engine server(fabric_, {.name = "server"});
  server.register_rpc(1, "echo", [](const net::Message& msg) {
    return Result<std::vector<std::uint8_t>>(msg.payload);
  });
  rpc::Engine client(fabric_, {.name = "client"});

  std::vector<rpc::Engine::PendingCall> calls;
  for (std::uint8_t i = 0; i < 20; ++i) {
    calls.push_back(client.begin_forward(server.endpoint(), 1, {i}));
  }
  for (std::uint8_t i = 0; i < 20; ++i) {
    auto r = client.finish(calls[i]);
    ASSERT_TRUE(r.is_ok());
    EXPECT_EQ((*r)[0], i);
  }
}

// Regression for the daemon startup window: the listener binds before
// handlers exist, so a fast client's first rpc used to bounce with
// not_supported. With start_paused early requests queue in the inbox
// and start() delivers each of them exactly once.
TEST_F(RpcTest, StartPausedHoldsDispatchUntilHandlersRegistered) {
  rpc::Engine server(fabric_, {.name = "server", .start_paused = true});
  rpc::Engine client(fabric_, {.name = "client"});
  constexpr std::uint8_t kCalls = 16;
  std::array<std::atomic<int>, kCalls> runs{};

  // The first half is sent while the server accepts traffic but has no
  // handlers yet, the second half after registration but before start().
  std::vector<rpc::Engine::PendingCall> calls;
  for (std::uint8_t i = 0; i < kCalls / 2; ++i) {
    calls.push_back(client.begin_forward(server.endpoint(), 1, {i}));
  }
  server.register_rpc(1, "echo", [&runs](const net::Message& msg) {
    runs[msg.payload.at(0)].fetch_add(1);
    return Result<std::vector<std::uint8_t>>(msg.payload);
  });
  for (std::uint8_t i = kCalls / 2; i < kCalls; ++i) {
    calls.push_back(client.begin_forward(server.endpoint(), 1, {i}));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  for (const auto& n : runs) EXPECT_EQ(n.load(), 0);

  server.start();
  server.start();  // a second start delivers nothing twice
  for (std::uint8_t i = 0; i < kCalls; ++i) {
    auto r = client.finish(calls[i]);
    ASSERT_TRUE(r.is_ok()) << r.status().to_string();
    EXPECT_EQ((*r)[0], i);
  }
  server.shutdown();  // drains the handler pool
  for (const auto& n : runs) EXPECT_EQ(n.load(), 1);
  EXPECT_EQ(server.requests_handled(), kCalls);
}

// Loopback delivery runs on the sender's thread, straight into the
// serving engine; shutdown() must wait those deliveries out.
TEST_F(RpcTest, ShutdownUnderLoadWaitsOutDeliveries) {
  test::shutdown_under_load(fabric_, fabric_);
}

std::size_t thread_count() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::stoul(line.substr(8));
  }
  return 0;
}

/// A joined thread may linger in the count for a moment while the
/// kernel finishes its exit.
std::size_t thread_count_settled(std::size_t want) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  std::size_t n = thread_count();
  while (n != want && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    n = thread_count();
  }
  return n;
}

// Engines run no progress thread: a sender-only engine starts no
// thread at all, and the handler pool starts with the first handler.
TEST_F(RpcTest, SenderOnlyEngineStartsNoThreads) {
  rpc::Engine server(fabric_, {.name = "server"});
  server.register_rpc(1, "echo", [](const net::Message& msg) {
    return Result<std::vector<std::uint8_t>>(msg.payload);
  });
  const std::size_t base = thread_count();
  ASSERT_GT(base, 0u);

  rpc::EngineOptions opts;
  opts.name = "sender";
  opts.handler_threads = 3;
  rpc::Engine engine(fabric_, opts);
  EXPECT_EQ(thread_count(), base);
  auto r = engine.forward(server.endpoint(), 1, {5});
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  EXPECT_EQ(thread_count(), base);
  // Refused without a pool: the engine has no handler for the id.
  EXPECT_EQ(server.forward(engine.endpoint(), 1, {}).code(),
            Errc::not_supported);
  EXPECT_EQ(thread_count(), base);

  engine.register_rpc(1, "echo", [](const net::Message& msg) {
    return Result<std::vector<std::uint8_t>>(msg.payload);
  });
  EXPECT_EQ(thread_count(), base + opts.handler_threads);
  engine.register_rpc(2, "echo2", [](const net::Message& msg) {
    return Result<std::vector<std::uint8_t>>(msg.payload);
  });
  EXPECT_EQ(thread_count(), base + opts.handler_threads);
  EXPECT_TRUE(server.forward(engine.endpoint(), 2, {}).is_ok());

  engine.shutdown();
  EXPECT_EQ(thread_count_settled(base), base);
}

}  // namespace
}  // namespace gekko

// Engine teardown under load, shared by the loopback (net_rpc_test),
// UDS (uds_fabric_test) and TCP (tcp_fabric_test) suites. Four threads
// keep forwarding to a serving engine while the test shuts it down.
// Fabrics deliver on their own threads straight into the engine, so
// shutdown() must wait out the deliveries that are running and refuse
// new ones.
#pragma once

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "net/fabric.h"
#include "rpc/engine.h"

namespace gekko::test {

/// `server_fabric` hosts the serving engine, `client_fabric` the caller
/// (the same object on loopback). The handler bumps one counter. The
/// second counter sees the engine's inline not_supported answers on the
/// server fabric's send path: each is sent from inside a delivery into
/// the serving engine, so it counts those deliveries. It counts after a
/// short stall, which widens the window in which a delivery is running
/// when shutdown() begins.
inline void shutdown_under_load(net::Fabric& server_fabric,
                                net::Fabric& client_fabric) {
  constexpr std::uint16_t kBump = 1;
  constexpr std::uint16_t kUnknown = 2;
  constexpr int kThreads = 4;

  auto server = std::make_unique<rpc::Engine>(
      server_fabric, rpc::EngineOptions{.name = "teardown-server"});
  std::atomic<std::uint64_t> bumps{0};
  server->register_rpc(kBump, "bump", [&bumps](const net::Message&) {
    bumps.fetch_add(1);
    return Result<std::vector<std::uint8_t>>(std::vector<std::uint8_t>{});
  });
  const net::EndpointId server_ep = server->endpoint();
  std::atomic<std::uint64_t> refusals{0};
  auto count_refusals = std::make_shared<net::CallbackFaultInjector>(
      [&refusals, server_ep](net::EndpointId, const net::Message& msg) {
        if (msg.kind == net::MessageKind::response &&
            msg.source == server_ep &&
            msg.payload == rpc::frame_error(Errc::not_supported)) {
          std::this_thread::sleep_for(std::chrono::microseconds(500));
          refusals.fetch_add(1);
        }
        return net::FaultAction{};
      });
  server_fabric.set_fault_injector(count_refusals);

  rpc::EngineOptions copts;
  copts.name = "teardown-client";
  copts.rpc_timeout = std::chrono::milliseconds(300);
  rpc::Engine client(client_fabric, copts);

  std::atomic<bool> stop{false};
  std::atomic<bool> shut{false};
  std::atomic<int> unexpected{0};
  std::atomic<int> after_shutdown{0};
  std::vector<std::thread> callers;
  for (int t = 0; t < kThreads; ++t) {
    callers.emplace_back([&, t] {
      for (int i = 0; !stop.load(); ++i) {
        const bool bump = (i + t) % 4 != 0;
        const auto r = client.forward(server_ep, bump ? kBump : kUnknown, {});
        const Errc code = r.code();
        const bool fine = code == Errc::disconnected ||
                          code == Errc::timed_out ||
                          code == (bump ? Errc::ok : Errc::not_supported);
        if (!fine) unexpected.fetch_add(1);
        if (shut.load()) after_shutdown.fetch_add(1);
      }
    });
  }

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while ((bumps.load() < 200 || refusals.load() < 20) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(bumps.load(), 200u);
  EXPECT_GE(refusals.load(), 20u);

  server->shutdown();
  shut.store(true);
  const std::uint64_t bumps_at_shutdown = bumps.load();
  const std::uint64_t refusals_at_shutdown = refusals.load();
  // Callers keep hammering the dead endpoint for a while.
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  EXPECT_EQ(bumps.load(), bumps_at_shutdown);
  EXPECT_EQ(refusals.load(), refusals_at_shutdown);

  stop.store(true);
  for (auto& c : callers) c.join();  // a hung call hangs here
  EXPECT_EQ(unexpected.load(), 0);
  EXPECT_GT(after_shutdown.load(), 0);
  EXPECT_EQ(bumps.load(), bumps_at_shutdown);
  EXPECT_EQ(refusals.load(), refusals_at_shutdown);

  server_fabric.set_fault_injector(nullptr);
  server.reset();
}

}  // namespace gekko::test

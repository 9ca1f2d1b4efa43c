// Stream-fabric tests over Unix-domain sockets: frame round trips
// within one process (two fabrics over a UDS pair), the full
// daemon/client stack across the socket transport, a TRUE
// multi-process deployment with forked gkfsd daemons, and the shared
// hostile-peer suite (hostile_peer.h).
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <filesystem>

#include "client/client.h"
#include "common/fileio.h"
#include "common/metrics.h"
#include "daemon/daemon.h"
#include "delivery_teardown.h"
#include "fs/mount.h"
#include "hostile_peer.h"
#include "net/stream_fabric.h"
#include "rpc/engine.h"

namespace gekko {
namespace test {

INSTANTIATE_TEST_SUITE_P(Uds, MalformedFrameTest,
                         ::testing::Values(net::Transport::uds));

}  // namespace test

namespace {

class UdsFabricTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("gekko_sock_" + std::to_string(::getpid()));
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::filesystem::path dir_;
};

TEST_F(UdsFabricTest, HostfileRoundTrip) {
  auto hostfile =
      net::StreamFabric::write_hostfile(dir_, 3, net::Transport::uds);
  ASSERT_TRUE(hostfile.is_ok());
  auto fabric = net::StreamFabric::create(
      *hostfile, {.self_id = 1});
  ASSERT_TRUE(fabric.is_ok()) << fabric.status().to_string();
}

TEST_F(UdsFabricTest, RejectsBadHostfiles) {
  EXPECT_EQ(net::StreamFabric::create(dir_ / "absent", {}).code(),
            Errc::not_found);
  ASSERT_TRUE(io::write_file_atomic(dir_ / "bad", "no-space-here\n").is_ok());
  EXPECT_EQ(net::StreamFabric::create(dir_ / "bad", {}).code(),
            Errc::invalid_argument);
  auto hostfile =
      net::StreamFabric::write_hostfile(dir_, 2, net::Transport::uds);
  EXPECT_EQ(net::StreamFabric::create(
                *hostfile, {.self_id = 99})
                .code(),
            Errc::invalid_argument);
}

TEST_F(UdsFabricTest, RejectsGarbageAndOutOfRangeHostfileIds) {
  // Malformed ids must come back as invalid_argument from the factory,
  // never as a std::stoul exception escaping a Result-returning API.
  const std::vector<std::string> bad_lines = {
      "xyz /tmp/a.sock\n",                    // not a number
      "12abc /tmp/a.sock\n",                  // trailing junk
      "-3 /tmp/a.sock\n",                     // negative
      "99999999999999999999 /tmp/a.sock\n",   // out of range for u32
      "1073741824 /tmp/a.sock\n",             // 2^30: client id-space
  };
  int i = 0;
  for (const auto& line : bad_lines) {
    const auto path = dir_ / ("bad" + std::to_string(i++));
    ASSERT_TRUE(io::write_file_atomic(path, line).is_ok());
    auto fabric = net::StreamFabric::create(path, {});
    EXPECT_EQ(fabric.code(), Errc::invalid_argument) << line;
  }
  // Comments and blank lines are still fine.
  const auto good = dir_ / "good";
  ASSERT_TRUE(io::write_file_atomic(
                  good, "# comment\n\n0 " + (dir_ / "d0.sock").string() + "\n")
                  .is_ok());
  EXPECT_TRUE(net::StreamFabric::create(good, {}).is_ok());
}

TEST_F(UdsFabricTest, RpcEchoAcrossSockets) {
  auto hostfile =
      net::StreamFabric::write_hostfile(dir_, 1, net::Transport::uds);
  ASSERT_TRUE(hostfile.is_ok());

  auto server_fabric = net::StreamFabric::create(
      *hostfile, {.self_id = 0});
  ASSERT_TRUE(server_fabric.is_ok());
  rpc::Engine server(**server_fabric, {.name = "sock-server"});
  ASSERT_EQ(server.endpoint(), 0u);
  server.register_rpc(1, "echo", [](const net::Message& msg) {
    return Result<std::vector<std::uint8_t>>(msg.payload);
  });

  auto client_fabric = net::StreamFabric::create(*hostfile, {});
  ASSERT_TRUE(client_fabric.is_ok());
  rpc::Engine client(**client_fabric, {.name = "sock-client"});

  auto resp = client.forward(0, 1, {5, 6, 7});
  ASSERT_TRUE(resp.is_ok()) << resp.status().to_string();
  EXPECT_EQ(*resp, (std::vector<std::uint8_t>{5, 6, 7}));

  // Many sequential round trips over the persistent connection.
  for (std::uint8_t i = 0; i < 50; ++i) {
    auto r = client.forward(0, 1, {i});
    ASSERT_TRUE(r.is_ok()) << "i=" << int(i) << ": "
                           << r.status().to_string();
    EXPECT_EQ((*r)[0], i);
  }
}

TEST_F(UdsFabricTest, LargeBulkFramesUseGatheredWrites) {
  // Zero-copy send path: frames carrying bulk payload must go out via
  // writev with the payload gathered straight from the exposed region,
  // never staged through the scratch buffer. Observable via the
  // net.uds.writev_segments counter (one count per gathered ext
  // segment), which stays flat for payload-only control frames.
  auto hostfile =
      net::StreamFabric::write_hostfile(dir_, 1, net::Transport::uds);
  ASSERT_TRUE(hostfile.is_ok());
  auto server_fabric = net::StreamFabric::create(
      *hostfile, {.self_id = 0});
  ASSERT_TRUE(server_fabric.is_ok());
  rpc::Engine server(**server_fabric, {.name = "zc-server"});

  constexpr std::size_t kBulk = 1 << 20;  // 1 MiB
  net::Fabric* sfab = server_fabric->get();
  server.register_rpc(1, "bulk-sink", [sfab](const net::Message& msg)
                          -> Result<std::vector<std::uint8_t>> {
    std::vector<std::uint8_t> got(msg.bulk.size());
    GEKKO_RETURN_IF_ERROR(sfab->bulk_pull(msg.bulk, 0, got));
    // Reply with a tiny digest so the client can check the payload
    // really crossed the wire intact.
    std::uint8_t acc = 0;
    for (const auto b : got) acc = static_cast<std::uint8_t>(acc ^ b);
    return std::vector<std::uint8_t>{static_cast<std::uint8_t>(got.size() >>
                                                               16),
                                     acc};
  });
  server.register_rpc(2, "bulk-source", [sfab](const net::Message& msg)
                          -> Result<std::vector<std::uint8_t>> {
    std::vector<std::uint8_t> out(msg.bulk.size());
    for (std::size_t i = 0; i < out.size(); ++i) {
      out[i] = static_cast<std::uint8_t>(i * 13 + 1);
    }
    GEKKO_RETURN_IF_ERROR(sfab->bulk_push(msg.bulk, 0, out));
    return std::vector<std::uint8_t>{};
  });

  auto client_fabric = net::StreamFabric::create(*hostfile, {});
  ASSERT_TRUE(client_fabric.is_ok());
  rpc::Engine client(**client_fabric, {.name = "zc-client"});
  auto& segs = metrics::Registry::global().counter("net.uds.writev_segments");
  // The response-frame increment happens on the server's handler thread
  // and may land just after the client consumed the reply; give it a
  // bounded moment.
  auto settled = [&](std::uint64_t floor) {
    for (int i = 0; i < 2000 && segs.value() <= floor; ++i) ::usleep(1000);
    return segs.value();
  };

  // Write direction: the REQUEST frame gathers the client's exposed
  // read region.
  std::vector<std::uint8_t> data(kBulk);
  std::uint8_t expect_xor = 0;
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i * 31 + 5);
    expect_xor = static_cast<std::uint8_t>(expect_xor ^ data[i]);
  }
  const std::uint64_t before_write = segs.value();
  auto resp = client.forward(0, 1, {}, net::BulkRegion::expose_read(data));
  ASSERT_TRUE(resp.is_ok()) << resp.status().to_string();
  ASSERT_EQ(resp->size(), 2u);
  EXPECT_EQ((*resp)[0], kBulk >> 16);
  EXPECT_EQ((*resp)[1], expect_xor);
  EXPECT_GT(settled(before_write), before_write);

  // Read direction: the RESPONSE frame gathers the server's pushed
  // ranges into the client's exposed write region.
  std::vector<std::uint8_t> sink(kBulk, 0);
  const std::uint64_t before_read = segs.value();
  auto rr = client.forward(0, 2, {}, net::BulkRegion::expose_write(sink));
  ASSERT_TRUE(rr.is_ok()) << rr.status().to_string();
  EXPECT_GT(settled(before_read), before_read);
  for (std::size_t i = 0; i < sink.size(); ++i) {
    ASSERT_EQ(sink[i], static_cast<std::uint8_t>(i * 13 + 1)) << i;
  }

  // Control traffic (no bulk) must not count gathered segments.
  server.register_rpc(3, "noop", [](const net::Message&) {
    return Result<std::vector<std::uint8_t>>(std::vector<std::uint8_t>{1});
  });
  const std::uint64_t before_noop = segs.value();
  ASSERT_TRUE(client.forward(0, 3, {1, 2, 3}).is_ok());
  EXPECT_EQ(segs.value(), before_noop);
}

TEST_F(UdsFabricTest, FullStackOverSockets) {
  // Daemon and client in one process but communicating ONLY through
  // Unix sockets — the loopback fabric is not involved.
  auto hostfile =
      net::StreamFabric::write_hostfile(dir_, 1, net::Transport::uds);
  ASSERT_TRUE(hostfile.is_ok());

  auto daemon_fabric = net::StreamFabric::create(
      *hostfile, {.self_id = 0});
  ASSERT_TRUE(daemon_fabric.is_ok());
  daemon::DaemonOptions dopts;
  dopts.chunk_size = 8192;
  dopts.kv_options.background_compaction = false;
  auto daemon =
      daemon::GekkoDaemon::start(**daemon_fabric, dir_ / "node0", dopts);
  ASSERT_TRUE(daemon.is_ok()) << daemon.status().to_string();

  auto client_fabric = net::StreamFabric::create(*hostfile, {});
  ASSERT_TRUE(client_fabric.is_ok());
  client::ClientOptions copts;
  copts.chunk_size = 8192;
  fs::Mount mnt(**client_fabric, {0}, copts);

  // Metadata + chunked data with inline-bulk both directions.
  auto fd = mnt.open("/sock-file", fs::create | fs::rd_wr);
  ASSERT_TRUE(fd.is_ok()) << fd.status().to_string();
  std::vector<std::uint8_t> data(20000);  // crosses chunk boundaries
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i * 7);
  }
  auto written = mnt.pwrite(*fd, data, 0);
  ASSERT_TRUE(written.is_ok()) << written.status().to_string();
  EXPECT_EQ(*written, data.size());

  std::vector<std::uint8_t> out(data.size());
  auto n = mnt.pread(*fd, out, 0);
  ASSERT_TRUE(n.is_ok()) << n.status().to_string();
  EXPECT_EQ(*n, data.size());
  EXPECT_EQ(out, data);

  EXPECT_EQ(mnt.fstat(*fd)->size, data.size());
  ASSERT_TRUE(mnt.close(*fd).is_ok());
  ASSERT_TRUE(mnt.unlink("/sock-file").is_ok());
  (*daemon)->shutdown();
}

TEST_F(UdsFabricTest, MultiProcessDaemons) {
  // The real thing: fork TWO gkfsd-style daemon processes, then run a
  // client in the parent against them.
#if defined(__SANITIZE_THREAD__)
  // Each child starts fabric threads after a fork of a threaded parent,
  // which TSan hard-rejects.
  GTEST_SKIP() << "fork+threads unsupported under TSan";
#endif
  constexpr std::uint32_t kDaemons = 2;
  auto hostfile =
      net::StreamFabric::write_hostfile(dir_, kDaemons, net::Transport::uds);
  ASSERT_TRUE(hostfile.is_ok());

  std::vector<pid_t> children;
  for (std::uint32_t id = 0; id < kDaemons; ++id) {
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      // Child: run a daemon until killed.
      auto fabric = net::StreamFabric::create(
          *hostfile, {.self_id = id});
      if (!fabric) ::_exit(10);
      daemon::DaemonOptions dopts;
      dopts.chunk_size = 8192;
      auto daemon = daemon::GekkoDaemon::start(
          **fabric, dir_ / ("node" + std::to_string(id)), dopts);
      if (!daemon) ::_exit(11);
      for (;;) ::pause();
    }
    children.push_back(pid);
  }

  // Wait for both sockets to appear.
  for (std::uint32_t id = 0; id < kDaemons; ++id) {
    const auto sock = dir_ / ("gkfsd." + std::to_string(id) + ".sock");
    for (int i = 0; i < 200 && !std::filesystem::exists(sock); ++i) {
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

    // Spread files over both daemon processes.
    std::vector<std::uint8_t> payload(30000);
    for (std::size_t i = 0; i < payload.size(); ++i) {
      payload[i] = static_cast<std::uint8_t>(i);
    }
    for (int i = 0; i < 8; ++i) {
      const std::string p = "/mp/file" + std::to_string(i);
      auto fd = mnt.open(p, fs::create | fs::rd_wr);
      ASSERT_TRUE(fd.is_ok()) << p << ": " << fd.status().to_string();
      ASSERT_TRUE(mnt.pwrite(*fd, payload, 0).is_ok());
      std::vector<std::uint8_t> back(payload.size());
      auto n = mnt.pread(*fd, back, 0);
      ASSERT_TRUE(n.is_ok());
      EXPECT_EQ(back, payload) << p;
      ASSERT_TRUE(mnt.close(*fd).is_ok());
    }
    // Both daemon processes must actually hold state (wide striping).
    auto stats = mnt.client().daemon_stats();
    ASSERT_TRUE(stats.is_ok());
    ASSERT_EQ(stats->size(), kDaemons);
    EXPECT_GT((*stats)[0].chunks_written + (*stats)[1].chunks_written, 0u);
    EXPECT_GT((*stats)[0].metadata_entries + (*stats)[1].metadata_entries,
              0u);
  }

  for (const pid_t pid : children) {
    ::kill(pid, SIGKILL);
    int status = 0;
    ::waitpid(pid, &status, 0);
  }
}

TEST_F(UdsFabricTest, DaemonRestartRecovery) {
  // Kill a daemon process out from under a live client, restart it on
  // the same data root, and verify the client's idempotent calls
  // (stat/read) recover transparently via reconnect + retry.
#if defined(__SANITIZE_THREAD__)
  // The restart forks while the parent's client fabric threads run;
  // the child then starts its own threads, which TSan hard-rejects
  // ("starting new threads after multi-threaded fork").
  GTEST_SKIP() << "fork+threads unsupported under TSan";
#endif
  auto hostfile =
      net::StreamFabric::write_hostfile(dir_, 1, net::Transport::uds);
  ASSERT_TRUE(hostfile.is_ok());
  const auto sock = dir_ / "gkfsd.0.sock";
  const auto root = dir_ / "node0";

  const auto spawn_daemon = [&]() -> pid_t {
    const pid_t pid = ::fork();
    if (pid == 0) {
      auto fabric = net::StreamFabric::create(
          *hostfile, {.self_id = 0});
      if (!fabric) ::_exit(10);
      daemon::DaemonOptions dopts;
      dopts.chunk_size = 4096;
      auto daemon = daemon::GekkoDaemon::start(**fabric, root, dopts);
      if (!daemon) ::_exit(11);
      for (;;) ::pause();
    }
    return pid;
  };
  const auto wait_for_sock = [&]() {
    for (int i = 0; i < 200 && !std::filesystem::exists(sock); ++i) {
      ::usleep(20 * 1000);
    }
    ASSERT_TRUE(std::filesystem::exists(sock));
  };

  pid_t daemon_pid = spawn_daemon();
  ASSERT_GE(daemon_pid, 0);
  wait_for_sock();

  auto client_fabric = net::StreamFabric::create(*hostfile, {});
  ASSERT_TRUE(client_fabric.is_ok());
  client::ClientOptions copts;
  copts.chunk_size = 4096;
  copts.rpc_options.rpc_timeout = std::chrono::milliseconds(300);
  copts.rpc_options.max_attempts = 6;
  copts.rpc_options.retry_backoff = std::chrono::milliseconds(50);
  fs::Mount mnt(**client_fabric, {0}, copts);

  std::vector<std::uint8_t> payload(10000);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(i * 3);
  }
  auto fd = mnt.open("/restart-me", fs::create | fs::rd_wr);
  ASSERT_TRUE(fd.is_ok()) << fd.status().to_string();
  ASSERT_TRUE(mnt.pwrite(*fd, payload, 0).is_ok());
  ASSERT_TRUE(mnt.close(*fd).is_ok());

  // Hard-kill the daemon (no shutdown — state must persist on disk),
  // then restart it on the same root. Remove the stale socket first so
  // wait_for_sock() observes the NEW daemon's bind.
  ::kill(daemon_pid, SIGKILL);
  int status = 0;
  ::waitpid(daemon_pid, &status, 0);
  std::filesystem::remove(sock);
  daemon_pid = spawn_daemon();
  ASSERT_GE(daemon_pid, 0);
  wait_for_sock();

  // Same client, same (now-dead) cached connection: stat + read must
  // succeed via transparent reconnect, without remounting.
  auto st = mnt.stat("/restart-me");
  ASSERT_TRUE(st.is_ok()) << st.status().to_string();
  EXPECT_EQ(st->size, payload.size());

  auto fd2 = mnt.open("/restart-me", fs::rd_only);
  ASSERT_TRUE(fd2.is_ok()) << fd2.status().to_string();
  std::vector<std::uint8_t> back(payload.size());
  auto n = mnt.pread(*fd2, back, 0);
  ASSERT_TRUE(n.is_ok()) << n.status().to_string();
  EXPECT_EQ(*n, payload.size());
  EXPECT_EQ(back, payload);
  ASSERT_TRUE(mnt.close(*fd2).is_ok());

  ::kill(daemon_pid, SIGKILL);
  ::waitpid(daemon_pid, &status, 0);
}

// The event loops deliver straight into the engines on both sides; the
// serving engine's shutdown tears its fabric down and must wait out the
// loop threads' running deliveries.
TEST_F(UdsFabricTest, ShutdownUnderLoadWaitsOutDeliveries) {
  auto hostfile =
      net::StreamFabric::write_hostfile(dir_, 1, net::Transport::uds);
  ASSERT_TRUE(hostfile.is_ok());
  auto server_fabric = net::StreamFabric::create(*hostfile, {.self_id = 0});
  ASSERT_TRUE(server_fabric.is_ok()) << server_fabric.status().to_string();
  auto client_fabric = net::StreamFabric::create(*hostfile, {});
  ASSERT_TRUE(client_fabric.is_ok());
  test::shutdown_under_load(**server_fabric, **client_fabric);
}

TEST_F(UdsFabricTest, ListenerFailureRollsBackRegistration) {
  // First registration fails (socket dir does not exist); after the
  // caller fixes the cause, a retry on the SAME fabric must see the
  // listener start — not the one-endpoint-per-fabric guard tripping on
  // state the failed attempt left behind.
  const auto missing = dir_ / "not-yet" / "d0.sock";
  const auto hostfile = dir_ / "hosts.txt";
  ASSERT_TRUE(
      io::write_file_atomic(hostfile, "0 " + missing.string() + "\n")
          .is_ok());
  auto fabric = net::StreamFabric::create(
      hostfile, {.self_id = 0});
  ASSERT_TRUE(fabric.is_ok()) << fabric.status().to_string();

  auto [id1, inbox1] = (*fabric)->register_endpoint();
  EXPECT_EQ(id1, net::kInvalidEndpoint);
  EXPECT_EQ(inbox1, nullptr);

  ASSERT_TRUE(io::ensure_dir(dir_ / "not-yet").is_ok());
  auto [id2, inbox2] = (*fabric)->register_endpoint();
  EXPECT_EQ(id2, 0u);
  EXPECT_NE(inbox2, nullptr);
}

TEST_F(UdsFabricTest, OverlongSocketPathFailsCleanly) {
  // sun_path is ~108 bytes; a longer configured path must surface as
  // invalid_argument on dial, not be silently truncated into a connect
  // to some other socket.
  const std::string long_path =
      (dir_ / std::string(150, 'a')).string();
  const auto hostfile = dir_ / "hosts.txt";
  ASSERT_TRUE(
      io::write_file_atomic(hostfile, "0 " + long_path + "\n").is_ok());
  auto fabric = net::StreamFabric::create(hostfile, {});
  ASSERT_TRUE(fabric.is_ok());
  auto [id, inbox] = (*fabric)->register_endpoint();
  ASSERT_NE(inbox, nullptr);
  net::Message msg;
  msg.kind = net::MessageKind::request;
  msg.rpc_id = 1;
  msg.seq = 1;
  auto st = (*fabric)->send(0, std::move(msg));
  EXPECT_EQ(st.code(), Errc::invalid_argument) << st.to_string();
}

}  // namespace
}  // namespace gekko

// Stream-fabric tests over TCP: transport selection (parse_transport /
// looks_like_tcp_address / make_fabric autodetect, one family per
// hostfile), RPC round trips and inline-bulk both directions over real
// TCP sockets with the epoll event loop, daemon restart recovery
// WITHOUT fork (everything stays in-process, so this suite can run
// under TSan), a many-client fan-in that exercises connection
// multiplexing across the loop pool, and the shared hostile-peer suite
// (hostile_peer.h).
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <filesystem>
#include <thread>

#include "client/client.h"
#include "common/fileio.h"
#include "common/metrics.h"
#include "daemon/daemon.h"
#include "fs/mount.h"
#include "net/stream_fabric.h"
#include "net/transport.h"
#include "rpc/engine.h"
#include "delivery_teardown.h"
#include "hostile_peer.h"

namespace gekko {
namespace test {

INSTANTIATE_TEST_SUITE_P(Tcp, MalformedFrameTest,
                         ::testing::Values(net::Transport::tcp));

}  // namespace test

namespace {

class TcpFabricTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("gekko_tcp_" + std::to_string(::getpid()));
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::filesystem::path dir_;
};

TEST(TransportSelection, ParseAndNames) {
  EXPECT_EQ(*net::parse_transport("auto"), net::Transport::autodetect);
  EXPECT_EQ(*net::parse_transport("uds"), net::Transport::uds);
  EXPECT_EQ(*net::parse_transport("tcp"), net::Transport::tcp);
  EXPECT_EQ(net::parse_transport("rdma").code(), Errc::invalid_argument);
  EXPECT_STREQ(net::transport_name(net::Transport::tcp), "tcp");
  EXPECT_STREQ(net::transport_name(net::Transport::uds), "uds");
}

TEST(TransportSelection, TcpAddressSniffing) {
  EXPECT_TRUE(net::looks_like_tcp_address("127.0.0.1:9230"));
  EXPECT_TRUE(net::looks_like_tcp_address("node-07:5000"));
  EXPECT_FALSE(net::looks_like_tcp_address("/tmp/gkfsd.0.sock"));
  EXPECT_FALSE(net::looks_like_tcp_address("./rel.sock"));
  EXPECT_FALSE(net::looks_like_tcp_address("host:"));       // no port
  EXPECT_FALSE(net::looks_like_tcp_address(":9230"));       // no host
  EXPECT_FALSE(net::looks_like_tcp_address("host:port"));   // non-numeric
  EXPECT_FALSE(net::looks_like_tcp_address("host:99999"));  // > u16
}

TEST_F(TcpFabricTest, HostfileRoundTripAndValidation) {
  auto hostfile =
      net::StreamFabric::write_hostfile(dir_, 3, net::Transport::tcp);
  ASSERT_TRUE(hostfile.is_ok()) << hostfile.status().to_string();
  auto fabric = net::StreamFabric::create(*hostfile, {.self_id = 1});
  ASSERT_TRUE(fabric.is_ok()) << fabric.status().to_string();
  EXPECT_EQ((*fabric)->daemon_ids(), (std::vector<net::EndpointId>{0, 1, 2}));

  EXPECT_EQ(net::StreamFabric::create(dir_ / "absent", {}).code(),
            Errc::not_found);
  EXPECT_EQ(net::StreamFabric::create(*hostfile,
                                   {.self_id = 99})
                .code(),
            Errc::invalid_argument);
}

TEST_F(TcpFabricTest, MakeFabricAutodetectsTransport) {
  auto tcp_hosts =
      net::StreamFabric::write_hostfile(dir_, 1, net::Transport::tcp);
  ASSERT_TRUE(tcp_hosts.is_ok());
  // TCP hostfile + autodetect: the daemon must actually bind its port.
  auto server = net::make_fabric(*tcp_hosts, {.self_id = 0});
  ASSERT_TRUE(server.is_ok()) << server.status().to_string();
  rpc::Engine server_engine(**server, {.name = "auto-server"});
  ASSERT_EQ(server_engine.endpoint(), 0u);
  server_engine.register_rpc(1, "echo", [](const net::Message& msg) {
    return Result<std::vector<std::uint8_t>>(msg.payload);
  });

  auto client = net::make_fabric(*tcp_hosts, {});
  ASSERT_TRUE(client.is_ok());
  rpc::Engine client_engine(**client, {.name = "auto-client"});
  auto resp = client_engine.forward(0, 1, {9, 9});
  ASSERT_TRUE(resp.is_ok()) << resp.status().to_string();
  EXPECT_EQ(*resp, (std::vector<std::uint8_t>{9, 9}));

  // A UDS hostfile through the same entry point binds a socket path.
  const auto uds_hosts = dir_ / "uds_hosts.txt";
  ASSERT_TRUE(io::write_file_atomic(
                  uds_hosts, "0 " + (dir_ / "d0.sock").string() + "\n")
                  .is_ok());
  auto uds = net::make_fabric(uds_hosts, {.self_id = 0});
  ASSERT_TRUE(uds.is_ok()) << uds.status().to_string();
  rpc::Engine uds_engine(**uds, {.name = "auto-uds-server"});
  EXPECT_EQ(uds_engine.endpoint(), 0u);
  EXPECT_TRUE(std::filesystem::exists(dir_ / "d0.sock"));
  // An explicit transport that contradicts the hostfile fails loudly.
  EXPECT_FALSE(net::make_fabric(uds_hosts, {.self_id = 0,
                                            .transport = net::Transport::tcp})
                   .is_ok());
}

TEST_F(TcpFabricTest, MixedHostfileIsRefused) {
  // One family per hostfile: a stray socket path among host:port lines
  // (or the reverse) fails create with the first address of the other
  // family, instead of failing at its first dial.
  const auto mixed = dir_ / "mixed.txt";
  ASSERT_TRUE(io::write_file_atomic(mixed, "0 127.0.0.1:9230\n1 " +
                                               (dir_ / "d1.sock").string() +
                                               "\n2 " +
                                               (dir_ / "d2.sock").string() +
                                               "\n")
                  .is_ok());
  auto fabric = net::make_fabric(mixed, {});
  EXPECT_EQ(fabric.code(), Errc::invalid_argument);
  EXPECT_NE(fabric.status().to_string().find((dir_ / "d1.sock").string()),
            std::string::npos)
      << fabric.status().to_string();

  const auto reversed = dir_ / "reversed.txt";
  ASSERT_TRUE(io::write_file_atomic(reversed, "0 " +
                                                  (dir_ / "d0.sock").string() +
                                                  "\n1 127.0.0.1:9231\n")
                  .is_ok());
  auto fabric2 = net::StreamFabric::create(reversed, {.self_id = 0});
  EXPECT_EQ(fabric2.code(), Errc::invalid_argument);
  EXPECT_NE(fabric2.status().to_string().find("127.0.0.1:9231"),
            std::string::npos)
      << fabric2.status().to_string();
}

TEST_F(TcpFabricTest, RpcEchoAcrossTcp) {
  auto hostfile =
      net::StreamFabric::write_hostfile(dir_, 1, net::Transport::tcp);
  ASSERT_TRUE(hostfile.is_ok());
  auto server_fabric = net::StreamFabric::create(*hostfile, {.self_id = 0});
  ASSERT_TRUE(server_fabric.is_ok()) << server_fabric.status().to_string();
  rpc::Engine server(**server_fabric, {.name = "tcp-server"});
  server.register_rpc(1, "echo", [](const net::Message& msg) {
    return Result<std::vector<std::uint8_t>>(msg.payload);
  });

  auto client_fabric = net::StreamFabric::create(*hostfile, {});
  ASSERT_TRUE(client_fabric.is_ok());
  rpc::Engine client(**client_fabric, {.name = "tcp-client"});

  // Many sequential round trips over one persistent connection: every
  // frame crosses the epoll loops of both sides.
  for (std::uint8_t i = 0; i < 64; ++i) {
    auto r = client.forward(0, 1, {i, static_cast<std::uint8_t>(i + 1)});
    ASSERT_TRUE(r.is_ok()) << "i=" << int(i) << ": " << r.status().to_string();
    EXPECT_EQ((*r)[0], i);
  }
  EXPECT_GT(metrics::Registry::global().counter("net.tcp.frames_out").value(),
            0u);
}

TEST_F(TcpFabricTest, LargeBulkBothDirections) {
  auto hostfile =
      net::StreamFabric::write_hostfile(dir_, 1, net::Transport::tcp);
  ASSERT_TRUE(hostfile.is_ok());
  auto server_fabric = net::StreamFabric::create(*hostfile, {.self_id = 0});
  ASSERT_TRUE(server_fabric.is_ok());
  rpc::Engine server(**server_fabric, {.name = "tcp-bulk-server"});

  constexpr std::size_t kBulk = 1 << 20;  // 1 MiB, many TCP segments
  net::Fabric* sfab = server_fabric->get();
  server.register_rpc(1, "bulk-sink", [sfab](const net::Message& msg)
                          -> Result<std::vector<std::uint8_t>> {
    std::vector<std::uint8_t> got(msg.bulk.size());
    GEKKO_RETURN_IF_ERROR(sfab->bulk_pull(msg.bulk, 0, got));
    std::uint8_t acc = 0;
    for (const auto b : got) acc = static_cast<std::uint8_t>(acc ^ b);
    return std::vector<std::uint8_t>{acc};
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
  rpc::Engine client(**client_fabric, {.name = "tcp-bulk-client"});

  std::vector<std::uint8_t> data(kBulk);
  std::uint8_t expect_xor = 0;
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i * 31 + 5);
    expect_xor = static_cast<std::uint8_t>(expect_xor ^ data[i]);
  }
  auto resp = client.forward(0, 1, {}, net::BulkRegion::expose_read(data));
  ASSERT_TRUE(resp.is_ok()) << resp.status().to_string();
  EXPECT_EQ((*resp)[0], expect_xor);

  std::vector<std::uint8_t> sink(kBulk, 0);
  auto rr = client.forward(0, 2, {}, net::BulkRegion::expose_write(sink));
  ASSERT_TRUE(rr.is_ok()) << rr.status().to_string();
  for (std::size_t i = 0; i < sink.size(); ++i) {
    ASSERT_EQ(sink[i], static_cast<std::uint8_t>(i * 13 + 1)) << i;
  }
}

TEST_F(TcpFabricTest, FullStackOverTcp) {
  auto hostfile =
      net::StreamFabric::write_hostfile(dir_, 2, net::Transport::tcp);
  ASSERT_TRUE(hostfile.is_ok());

  std::vector<std::unique_ptr<net::StreamFabric>> daemon_fabrics;
  std::vector<std::unique_ptr<daemon::GekkoDaemon>> daemons;
  for (net::EndpointId id = 0; id < 2; ++id) {
    auto fabric = net::make_fabric(*hostfile, {.self_id = id});
    ASSERT_TRUE(fabric.is_ok()) << fabric.status().to_string();
    daemon::DaemonOptions dopts;
    dopts.chunk_size = 8192;
    dopts.kv_options.background_compaction = false;
    auto daemon = daemon::GekkoDaemon::start(
        **fabric, dir_ / ("node" + std::to_string(id)), dopts);
    ASSERT_TRUE(daemon.is_ok()) << daemon.status().to_string();
    daemon_fabrics.push_back(std::move(*fabric));
    daemons.push_back(std::move(*daemon));
  }

  auto client_fabric = net::make_fabric(*hostfile, {});
  ASSERT_TRUE(client_fabric.is_ok());
  client::ClientOptions copts;
  copts.chunk_size = 8192;
  fs::Mount mnt(**client_fabric, {0, 1}, copts);

  std::vector<std::uint8_t> data(30000);  // stripes across both daemons
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i * 7);
  }
  for (int i = 0; i < 4; ++i) {
    const std::string p = "/tcp/file" + std::to_string(i);
    auto fd = mnt.open(p, fs::create | fs::rd_wr);
    ASSERT_TRUE(fd.is_ok()) << p << ": " << fd.status().to_string();
    ASSERT_TRUE(mnt.pwrite(*fd, data, 0).is_ok());
    std::vector<std::uint8_t> back(data.size());
    auto n = mnt.pread(*fd, back, 0);
    ASSERT_TRUE(n.is_ok()) << n.status().to_string();
    EXPECT_EQ(back, data) << p;
    ASSERT_TRUE(mnt.close(*fd).is_ok());
  }
  auto stats = mnt.client().daemon_stats();
  ASSERT_TRUE(stats.is_ok());
  EXPECT_GT((*stats)[0].chunks_written + (*stats)[1].chunks_written, 0u);
  for (auto& d : daemons) d->shutdown();
}

TEST_F(TcpFabricTest, DaemonRestartRecovery) {
  // Same scenario as the UDS suite's fork-based restart test, but
  // fully in-process: tear the daemon (and its fabric, releasing the
  // port) down, restart on the same data root and port, and verify the
  // client's idempotent calls recover over a fresh dial.
  auto hostfile =
      net::StreamFabric::write_hostfile(dir_, 1, net::Transport::tcp);
  ASSERT_TRUE(hostfile.is_ok());
  const auto root = dir_ / "node0";

  auto daemon_fabric = net::StreamFabric::create(*hostfile, {.self_id = 0});
  ASSERT_TRUE(daemon_fabric.is_ok());
  daemon::DaemonOptions dopts;
  dopts.chunk_size = 4096;
  auto daemon = daemon::GekkoDaemon::start(**daemon_fabric, root, dopts);
  ASSERT_TRUE(daemon.is_ok()) << daemon.status().to_string();

  auto& dials = metrics::Registry::global().counter("net.tcp.dials");
  const std::uint64_t dials_before = dials.value();

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

  (*daemon)->shutdown();
  daemon->reset();
  daemon_fabric->reset();  // releases the listen port

  auto fabric2 = net::StreamFabric::create(*hostfile, {.self_id = 0});
  ASSERT_TRUE(fabric2.is_ok()) << fabric2.status().to_string();
  auto daemon2 = daemon::GekkoDaemon::start(**fabric2, root, dopts);
  ASSERT_TRUE(daemon2.is_ok()) << daemon2.status().to_string();

  auto st = mnt.stat("/restart-me");
  ASSERT_TRUE(st.is_ok()) << st.status().to_string();
  EXPECT_EQ(st->size, payload.size());

  auto fd2 = mnt.open("/restart-me", fs::rd_only);
  ASSERT_TRUE(fd2.is_ok()) << fd2.status().to_string();
  std::vector<std::uint8_t> back(payload.size());
  auto n = mnt.pread(*fd2, back, 0);
  ASSERT_TRUE(n.is_ok()) << n.status().to_string();
  EXPECT_EQ(back, payload);
  ASSERT_TRUE(mnt.close(*fd2).is_ok());
  // The event loop evicts the dead link on EOF, so the reconnect shows
  // up as a second fresh dial (redials only counts the cached-but-dead
  // race).
  EXPECT_GE(dials.value() - dials_before, 2u);
  (*daemon2)->shutdown();
}

TEST_F(TcpFabricTest, ManyClientsFanIn) {
  // A dozen client fabrics (each its own connection) hammering one
  // daemon-side engine concurrently: exercises accept via the event
  // loop, per-connection reassembly under interleaving, and reply
  // routing by (source, seq) across distinct client endpoint ids.
  auto hostfile =
      net::StreamFabric::write_hostfile(dir_, 1, net::Transport::tcp);
  ASSERT_TRUE(hostfile.is_ok());
  auto server_fabric = net::StreamFabric::create(*hostfile, {.self_id = 0});
  ASSERT_TRUE(server_fabric.is_ok());
  rpc::Engine server(**server_fabric, {.name = "fanin-server"});
  server.register_rpc(1, "echo", [](const net::Message& msg) {
    return Result<std::vector<std::uint8_t>>(msg.payload);
  });

  constexpr int kClients = 12;
  constexpr int kOpsPerClient = 40;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  threads.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      auto fabric = net::StreamFabric::create(
          *hostfile, net::MakeFabricOptions{.event_loops = 1});
      if (!fabric) {
        failures.fetch_add(1);
        return;
      }
      rpc::Engine client(**fabric, {.name = "fanin-" + std::to_string(c)});
      for (int i = 0; i < kOpsPerClient; ++i) {
        const auto b = static_cast<std::uint8_t>(c * 16 + (i & 15));
        auto r = client.forward(0, 1, {b});
        if (!r.is_ok() || (*r)[0] != b) {
          failures.fetch_add(1);
          return;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
}

// The epoll loops deliver straight into the engines on both sides; the
// serving engine's shutdown tears its fabric down and must wait out the
// loop threads' running deliveries.
TEST_F(TcpFabricTest, ShutdownUnderLoadWaitsOutDeliveries) {
  auto hostfile =
      net::StreamFabric::write_hostfile(dir_, 1, net::Transport::tcp);
  ASSERT_TRUE(hostfile.is_ok());
  auto server_fabric = net::StreamFabric::create(*hostfile, {.self_id = 0});
  ASSERT_TRUE(server_fabric.is_ok()) << server_fabric.status().to_string();
  auto client_fabric = net::StreamFabric::create(*hostfile, {});
  ASSERT_TRUE(client_fabric.is_ok());
  test::shutdown_under_load(**server_fabric, **client_fabric);
}

// A daemon whose listen port is taken reports it as an error instead of
// running an engine with no endpoint.
TEST_F(TcpFabricTest, DaemonStartFailsWhenPortIsHeld) {
  auto hostfile =
      net::StreamFabric::write_hostfile(dir_, 1, net::Transport::tcp);
  ASSERT_TRUE(hostfile.is_ok());
  auto content = io::read_file(*hostfile);
  ASSERT_TRUE(content.is_ok());
  auto hosts = net::parse_hostfile(*content);
  ASSERT_TRUE(hosts.is_ok());
  const std::string& addr = hosts->at(0);
  const int port = std::stoi(addr.substr(addr.rfind(':') + 1));

  const int holder = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(holder, 0);
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  sa.sin_port = htons(static_cast<std::uint16_t>(port));
  ASSERT_EQ(::bind(holder, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)), 0);
  ASSERT_EQ(::listen(holder, 1), 0);

  auto fabric = net::StreamFabric::create(*hostfile, {.self_id = 0});
  ASSERT_TRUE(fabric.is_ok()) << fabric.status().to_string();
  auto daemon = daemon::GekkoDaemon::start(**fabric, dir_ / "node0", {});
  EXPECT_FALSE(daemon.is_ok());
  EXPECT_EQ(daemon.code(), Errc::io_error);
  ::close(holder);
}

}  // namespace
}  // namespace gekko

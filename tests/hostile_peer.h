// Hostile-peer suite, shared by the UDS (uds_fabric_test) and TCP
// (tcp_fabric_test) suites: one stream fabric serves both address
// families, so the same malformed frames must be refused on both.
//
// A fabric listener is reachable by anything that can open its socket;
// a malformed frame must kill ONLY the offending connection, never the
// listener and never another client's session. Each binary
// instantiates MalformedFrameTest with its own net::Transport.
#pragma once

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <charconv>
#include <cstring>
#include <filesystem>
#include <functional>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/codec.h"
#include "common/fileio.h"
#include "common/metrics.h"
#include "net/frame_codec.h"
#include "net/stream_fabric.h"
#include "rpc/engine.h"

namespace gekko::test {

/// Blocking connect to a hostfile address of either family; -1 on
/// failure.
inline int dial_raw(const std::string& addr) {
  if (!net::looks_like_tcp_address(addr)) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) return -1;
    sockaddr_un sa{};
    sa.sun_family = AF_UNIX;
    std::strncpy(sa.sun_path, addr.c_str(), sizeof(sa.sun_path) - 1);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) != 0) {
      ::close(fd);
      return -1;
    }
    return fd;
  }
  const auto colon = addr.rfind(':');
  std::uint16_t port = 0;
  std::from_chars(addr.data() + colon + 1, addr.data() + addr.size(), port);
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(port);
  ::inet_pton(AF_INET, addr.substr(0, colon).c_str(), &sa.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

inline bool send_all(int fd, const std::vector<std::uint8_t>& bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n =
        ::send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (n <= 0) return false;
    off += static_cast<std::size_t>(n);
  }
  return true;
}

inline bool recv_all(int fd, std::uint8_t* buf, std::size_t len) {
  std::size_t off = 0;
  while (off < len) {
    const ssize_t n = ::recv(fd, buf + off, len - off, 0);
    if (n <= 0) return false;
    off += static_cast<std::size_t>(n);
  }
  return true;
}

// Builds a complete wire frame (length prefix + body) whose header is
// well-formed; `bulk` appends the hostile bulk section.
inline std::vector<std::uint8_t> hostile_frame(
    net::MessageKind kind, std::uint64_t seq, std::uint32_t source,
    const std::function<void(Encoder&)>& bulk) {
  std::vector<std::uint8_t> body;
  Encoder enc(&body);
  enc.u8(static_cast<std::uint8_t>(kind));
  enc.u16(7);  // rpc id — irrelevant, the frame dies in the fabric
  enc.u64(seq);
  enc.u32(source);
  enc.u64(0);  // trace id
  enc.u64(0);  // parent span
  enc.str("");
  bulk(enc);
  std::vector<std::uint8_t> out(net::wire::kLenPrefixBytes);
  const auto len = static_cast<std::uint32_t>(body.size());
  std::memcpy(out.data(), &len, sizeof(len));
  out.insert(out.end(), body.begin(), body.end());
  return out;
}

inline std::uint64_t wait_for_increase(metrics::Counter& c,
                                       std::uint64_t floor) {
  for (int i = 0; i < 2000 && c.value() <= floor; ++i) ::usleep(1000);
  return c.value();
}

class MalformedFrameTest : public ::testing::TestWithParam<net::Transport> {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("gekko_hostile_" + std::to_string(::getpid()));
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    server_.reset();
    server_fabric_.reset();
    std::filesystem::remove_all(dir_);
  }

  /// net.uds.evictions or net.tcp.evictions.
  metrics::Counter& evictions() {
    return metrics::Registry::global().counter(
        std::string("net.") + net::transport_name(GetParam()) + ".evictions");
  }

  // Server fabric + echo engine at id 0, listening on dir_'s hostfile.
  void start_server() {
    auto hostfile = net::StreamFabric::write_hostfile(dir_, 1, GetParam());
    ASSERT_TRUE(hostfile.is_ok());
    hostfile_ = *hostfile;
    auto content = io::read_file(hostfile_);
    ASSERT_TRUE(content.is_ok());
    address_ = net::parse_hostfile(*content)->at(0);
    auto fabric = net::StreamFabric::create(hostfile_, {.self_id = 0});
    ASSERT_TRUE(fabric.is_ok());
    server_fabric_ = std::move(*fabric);
    server_ = std::make_unique<rpc::Engine>(
        *server_fabric_, rpc::EngineOptions{.name = "hostile-server"});
    server_->register_rpc(1, "echo", [](const net::Message& msg) {
      return Result<std::vector<std::uint8_t>>(msg.payload);
    });
  }

  // The listener must survive a hostile peer: a fresh, well-behaved
  // client still gets service afterwards.
  void expect_server_alive() {
    auto client_fabric = net::StreamFabric::create(hostfile_, {});
    ASSERT_TRUE(client_fabric.is_ok());
    rpc::Engine client(**client_fabric,
                       rpc::EngineOptions{.name = "post-attack-client"});
    auto resp = client.forward(0, 1, {42});
    ASSERT_TRUE(resp.is_ok()) << resp.status().to_string();
    EXPECT_EQ((*resp)[0], 42);
  }

  void expect_frame_evicts(const std::vector<std::uint8_t>& frame) {
    const auto before = evictions().value();
    const int fd = dial_raw(address_);
    ASSERT_GE(fd, 0);
    ASSERT_TRUE(send_all(fd, frame));
    EXPECT_GT(wait_for_increase(evictions(), before), before)
        << "hostile frame did not evict the connection";
    ::close(fd);
    expect_server_alive();
  }

  /// A plain listening socket standing in for a hostile daemon, and a
  /// one-line hostfile naming it. Returns the listening fd.
  int listen_hostile(std::filesystem::path* hostfile) {
    std::string address;
    int fd = -1;
    if (GetParam() == net::Transport::uds) {
      const auto sock = dir_ / "fake.sock";
      fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
      sockaddr_un sa{};
      sa.sun_family = AF_UNIX;
      std::strncpy(sa.sun_path, sock.c_str(), sizeof(sa.sun_path) - 1);
      if (::bind(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) != 0) {
        ::close(fd);
        return -1;
      }
      address = sock.string();
    } else {
      fd = ::socket(AF_INET, SOCK_STREAM, 0);
      sockaddr_in sa{};
      sa.sin_family = AF_INET;
      sa.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      socklen_t len = sizeof(sa);
      if (::bind(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) != 0 ||
          ::getsockname(fd, reinterpret_cast<sockaddr*>(&sa), &len) != 0) {
        ::close(fd);
        return -1;
      }
      address = "127.0.0.1:" + std::to_string(ntohs(sa.sin_port));
    }
    *hostfile = dir_ / "hostile_hosts.txt";
    if (::listen(fd, 4) != 0 ||
        !io::write_file_atomic(*hostfile, "0 " + address + "\n").is_ok()) {
      ::close(fd);
      return -1;
    }
    return fd;
  }

  std::filesystem::path dir_;
  std::filesystem::path hostfile_;
  std::string address_;
  std::unique_ptr<net::StreamFabric> server_fabric_;
  std::unique_ptr<rpc::Engine> server_;
};

TEST_P(MalformedFrameTest, TruncatedBulkSectionEvictsPeer) {
  start_server();
  // Announces inline bulk data, then ends the frame before the byte
  // string: decode must fail as corruption, not read past the buffer.
  expect_frame_evicts(
      hostile_frame(net::MessageKind::request, 1, 0x40000001,
                    [](Encoder& e) { e.u8(net::wire::kBulkReadData); }));
}

TEST_P(MalformedFrameTest, TruncatedResponseRangeEvictsPeer) {
  start_server();
  // Claims 3 response ranges but carries only a partial first one.
  expect_frame_evicts(hostile_frame(net::MessageKind::response, 1,
                                    0x40000002, [](Encoder& e) {
                                      e.u8(net::wire::kBulkResponseData);
                                      e.varint(3);
                                      e.u64(0);  // offset, then no data
                                    }));
}

TEST_P(MalformedFrameTest, OversizedWritableSizeEvictsPeer) {
  start_server();
  // A writable-bulk announcement allocates a buffer on the RECEIVER;
  // a hostile 2^63-byte demand must be rejected before the allocation,
  // not tip the daemon over.
  expect_frame_evicts(hostile_frame(
      net::MessageKind::request, 1, 0x40000003, [](Encoder& e) {
        e.u8(net::wire::kBulkWritableSize);
        e.u64(std::uint64_t{1} << 63);
      }));
}

TEST_P(MalformedFrameTest, UnknownBulkModeEvictsPeer) {
  start_server();
  expect_frame_evicts(hostile_frame(net::MessageKind::request, 1, 0x40000004,
                                    [](Encoder& e) { e.u8(0xEE); }));
}

TEST_P(MalformedFrameTest, WrappingResponseRangeEvictsHostileServer) {
  // Hand-rolled hostile "daemon": accepts the client's request and
  // replies with a response-data range whose offset sits just below
  // 2^64, so offset + len wraps past zero. An `off + len > size` bounds
  // check overflows and accepts it — memcpy would then scribble at
  // write_ptr() + (2^64 - 16). The overflow-safe check rejects the
  // range and kills the connection before a single byte lands.
  std::filesystem::path hostfile;
  const int lfd = listen_hostile(&hostfile);
  ASSERT_GE(lfd, 0);

  auto client_fabric = net::StreamFabric::create(hostfile, {});
  ASSERT_TRUE(client_fabric.is_ok());
  rpc::Engine client(
      **client_fabric,
      rpc::EngineOptions{.rpc_timeout = std::chrono::milliseconds(2000),
                         .name = "wrap-victim"});

  const auto before = evictions().value();

  std::vector<std::uint8_t> sink(4096, 0);
  std::optional<Result<std::vector<std::uint8_t>>> resp;
  std::thread caller([&] {
    resp = client.forward(0, 7, {}, net::BulkRegion::expose_write(sink));
  });

  const int cfd = ::accept(lfd, nullptr, nullptr);
  ASSERT_GE(cfd, 0);
  // Read the request to learn its seq, so the hostile response matches
  // the client's pending writable region.
  std::uint8_t len_buf[net::wire::kLenPrefixBytes];
  ASSERT_TRUE(recv_all(cfd, len_buf, sizeof(len_buf)));
  std::uint32_t req_len = 0;
  std::memcpy(&req_len, len_buf, sizeof(req_len));
  std::vector<std::uint8_t> req(req_len);
  ASSERT_TRUE(recv_all(cfd, req.data(), req.size()));
  std::uint64_t seq = 0;
  std::memcpy(&seq, req.data() + 3, sizeof(seq));  // [kind u8][rpc u16][seq]

  ASSERT_TRUE(send_all(
      cfd, hostile_frame(net::MessageKind::response, seq, 0,
                         [](Encoder& e) {
                           e.u8(net::wire::kBulkResponseData);
                           e.varint(1);
                           e.u64(~std::uint64_t{0} - 15);  // off + 32 wraps
                           e.str(std::string(32, 'X'));
                         })));

  caller.join();
  ASSERT_TRUE(resp.has_value());
  EXPECT_FALSE(resp->is_ok());
  EXPECT_GT(wait_for_increase(evictions(), before), before);
  // No byte of the wrapping range may have landed anywhere in the
  // region (a partial apply would leave 'X' bytes behind).
  for (std::size_t i = 0; i < sink.size(); ++i) ASSERT_EQ(sink[i], 0u) << i;

  ::close(cfd);
  ::close(lfd);
}

}  // namespace gekko::test

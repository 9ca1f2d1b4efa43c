// Failure injection across the stack: lost messages, dead daemons,
// corrupted persistence, partial cluster availability.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>

#include "cluster/cluster.h"
#include "common/fileio.h"
#include "proto/messages.h"

namespace gekko {
namespace {

class FailureTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = std::filesystem::temp_directory_path() /
            ("gekko_fail_" + std::to_string(::getpid()));
    std::filesystem::remove_all(root_);
    cluster::ClusterOptions opts;
    opts.nodes = 3;
    opts.root = root_;
    opts.daemon_options.chunk_size = 8 * 1024;
    opts.daemon_options.kv_options.background_compaction = false;
    // Short timeout: fault tests should fail fast.
    opts.daemon_options.rpc_options.rpc_timeout =
        std::chrono::milliseconds(200);
    auto c = cluster::Cluster::start(opts);
    ASSERT_TRUE(c.is_ok());
    cluster_ = std::move(*c);
    client::ClientOptions copts;
    copts.rpc_options.rpc_timeout = std::chrono::milliseconds(200);
    mnt_ = cluster_->mount(copts);
  }
  void TearDown() override {
    mnt_.reset();
    cluster_.reset();
    std::filesystem::remove_all(root_);
  }

  /// Daemon id owning a path's metadata (to target faults precisely).
  std::uint32_t owner_of(std::string_view path) {
    return mnt_->client().distributor().metadata_target(path);
  }

  std::filesystem::path root_;
  std::unique_ptr<cluster::Cluster> cluster_;
  std::unique_ptr<fs::Mount> mnt_;
};

TEST_F(FailureTest, BlackholedDaemonTimesOutOthersKeepWorking) {
  const std::uint32_t victim = owner_of("/on-victim");
  const net::EndpointId victim_ep = cluster_->daemon_endpoints()[victim];
  cluster_->fabric().set_fault_injector(
      std::make_shared<net::CallbackFaultInjector>(
          [victim_ep](net::EndpointId dest, const net::Message&) {
            return net::FaultAction{.drop = dest == victim_ep};
          }));

  auto fd = mnt_->open("/on-victim", fs::create | fs::wr_only);
  EXPECT_EQ(fd.code(), Errc::timed_out);

  // A path owned by another daemon still works.
  std::string other = "/other";
  for (int i = 0; owner_of(other) == victim && i < 100; ++i) {
    other = "/other" + std::to_string(i);
  }
  ASSERT_NE(owner_of(other), victim);
  auto ok_fd = mnt_->open(other, fs::create | fs::wr_only);
  EXPECT_TRUE(ok_fd.is_ok()) << ok_fd.status().to_string();

  // Network heals: the victim becomes reachable again.
  cluster_->fabric().set_fault_injector(nullptr);
  auto healed = mnt_->open("/on-victim", fs::create | fs::wr_only);
  EXPECT_TRUE(healed.is_ok());
}

TEST_F(FailureTest, StoppedDaemonYieldsDisconnected) {
  const std::uint32_t victim = owner_of("/dead-owner");
  cluster_->stop_daemon(victim);
  auto st = mnt_->stat("/dead-owner");
  EXPECT_TRUE(st.code() == Errc::disconnected ||
              st.code() == Errc::timed_out)
      << st.status().to_string();
}

TEST_F(FailureTest, DataSurvivesWalTornTail) {
  // Write through the full stack, kill the cluster, corrupt a WAL
  // tail, restart: all durable (flushed) records must still be there.
  auto fd = mnt_->open("/durable", fs::create | fs::wr_only);
  ASSERT_TRUE(fd.is_ok());
  std::vector<std::uint8_t> data(1024, 0x42);
  ASSERT_TRUE(mnt_->pwrite(*fd, data, 0).is_ok());
  ASSERT_TRUE(mnt_->close(*fd).is_ok());
  mnt_.reset();

  const std::uint32_t owner = 0;  // corrupt node0's WAL regardless of owner
  // Find a WAL file under node0's metadata dir and append garbage (a
  // torn concurrent write at crash time).
  const auto md_dir = root_ / "node0" / "metadata";
  bool corrupted = false;
  for (const auto& entry : std::filesystem::directory_iterator(md_dir)) {
    const std::string name = entry.path().filename();
    if (name.starts_with("wal-")) {
      auto content = io::read_file(entry.path());
      ASSERT_TRUE(content.is_ok());
      *content += "GARBAGE-TORN-TAIL";
      ASSERT_TRUE(io::write_file_atomic(entry.path(), *content).is_ok());
      corrupted = true;
    }
  }
  EXPECT_TRUE(corrupted) << "expected an active WAL on node0";
  (void)owner;

  for (std::uint32_t d = 0; d < cluster_->node_count(); ++d) {
    ASSERT_TRUE(cluster_->restart_daemon(d).is_ok())
        << "daemon " << d << " failed to restart over corrupted state";
  }
  mnt_ = cluster_->mount();
  auto md = mnt_->stat("/durable");
  ASSERT_TRUE(md.is_ok()) << md.status().to_string();
  EXPECT_EQ(md->size, 1024u);
}

TEST_F(FailureTest, MissingChunkFilesReadAsZeroes) {
  auto fd = mnt_->open("/holey", fs::create | fs::rd_wr);
  ASSERT_TRUE(fd.is_ok());
  std::vector<std::uint8_t> data(32 * 1024, 0x7e);  // 4 chunks of 8 KiB
  ASSERT_TRUE(mnt_->pwrite(*fd, data, 0).is_ok());

  // Simulate chunk loss: wipe every chunk directory on one node.
  ASSERT_TRUE(mnt_->close(*fd).is_ok());
  const auto chunks_dir = root_ / "node1" / "chunks";
  std::filesystem::remove_all(chunks_dir);
  std::filesystem::create_directories(chunks_dir);

  mnt_ = cluster_->mount();
  auto rfd = mnt_->open("/holey", fs::rd_only);
  ASSERT_TRUE(rfd.is_ok());
  std::vector<std::uint8_t> out(32 * 1024, 0xff);
  auto n = mnt_->pread(*rfd, out, 0);
  ASSERT_TRUE(n.is_ok()) << n.status().to_string();
  EXPECT_EQ(*n, out.size());
  // Every byte is either intact (0x7e) or a zero-filled hole — never
  // garbage. (Strong guarantee would need replication, out of scope.)
  for (const auto b : out) {
    ASSERT_TRUE(b == 0x7e || b == 0x00);
  }
}

TEST_F(FailureTest, LossyNetworkOnlyCausesTimeoutsNotCorruption) {
  // Drop one send in 13, requests and responses alike.
  auto sends = std::make_shared<std::atomic<std::uint64_t>>(0);
  cluster_->fabric().set_fault_injector(
      std::make_shared<net::CallbackFaultInjector>(
          [sends](net::EndpointId, const net::Message&) {
            const std::uint64_t n = sends->fetch_add(1) + 1;
            return net::FaultAction{.drop = n % 13 == 0};
          }));
  int successes = 0;
  int timeouts = 0;
  for (int i = 0; i < 60; ++i) {
    auto fd = mnt_->open("/lossy" + std::to_string(i),
                         fs::create | fs::wr_only);
    if (fd.is_ok()) {
      ++successes;
      (void)mnt_->close(*fd);
    } else if (fd.code() == Errc::timed_out) {
      ++timeouts;
    } else {
      FAIL() << "unexpected error: " << fd.status().to_string();
    }
  }
  EXPECT_GT(successes, 0);
  EXPECT_GT(timeouts, 0);

  cluster_->fabric().set_fault_injector(nullptr);
  // Every file that reported success must be intact.
  for (int i = 0; i < 60; ++i) {
    const std::string p = "/lossy" + std::to_string(i);
    auto md = mnt_->stat(p);
    if (md.is_ok()) continue;  // creation may have failed: fine
    EXPECT_EQ(md.code(), Errc::not_found) << p;
  }
}

TEST_F(FailureTest, TransientDropMaskedByIdempotentRetry) {
  // A one-shot fault injector drops the first stat request on the
  // floor. The client's default retry policy (idempotent rpcs only)
  // must mask the loss — the caller sees success, not timed_out.
  auto fd = mnt_->open("/flaky-read", fs::create | fs::wr_only);
  ASSERT_TRUE(fd.is_ok());
  ASSERT_TRUE(mnt_->close(*fd).is_ok());

  auto dropped = std::make_shared<std::atomic<int>>(0);
  cluster_->fabric().set_fault_injector(
      std::make_shared<net::CallbackFaultInjector>(
          [dropped](net::EndpointId, const net::Message& msg) {
            net::FaultAction a;
            if (msg.kind == net::MessageKind::request &&
                msg.rpc_id == proto::to_wire(proto::RpcId::stat) &&
                dropped->fetch_add(1) == 0) {
              a.drop = true;
            }
            return a;
          }));

  const auto before = mnt_->client().engine().retries();
  auto md = mnt_->stat("/flaky-read");
  ASSERT_TRUE(md.is_ok()) << md.status().to_string();
  EXPECT_EQ(dropped->load(), 2);  // first dropped, retry delivered
  EXPECT_GT(mnt_->client().engine().retries(), before);
  cluster_->fabric().set_fault_injector(nullptr);
}

TEST_F(FailureTest, ManifestCorruptionIsDetectedAtRestart) {
  auto fd = mnt_->open("/x", fs::create | fs::wr_only);
  ASSERT_TRUE(fd.is_ok());
  ASSERT_TRUE(mnt_->close(*fd).is_ok());
  mnt_.reset();
  cluster_->stop_daemon(1);

  const auto manifest = root_ / "node1" / "metadata" / "MANIFEST";
  ASSERT_TRUE(std::filesystem::exists(manifest));
  ASSERT_TRUE(io::write_file_atomic(manifest, "not a manifest").is_ok());

  EXPECT_EQ(cluster_->restart_daemon(1).code(), Errc::corruption);
}

}  // namespace
}  // namespace gekko

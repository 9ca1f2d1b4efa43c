// End-to-end smoke: a small cluster, files created/written/read/
// removed through the public Mount API, across daemons — over every
// cluster transport (in-process loopback, Unix-domain sockets, TCP).
#include <gtest/gtest.h>

#include <filesystem>
#include <limits>
#include <numeric>

#include "cluster/cluster.h"
#include "common/rng.h"
#include "proto/messages.h"

namespace gekko {
namespace {

class SmokeTest : public ::testing::TestWithParam<cluster::ClusterTransport> {
 protected:
  void SetUp() override {
    root_ = std::filesystem::temp_directory_path() /
            ("gekko_smoke_" + std::to_string(::getpid()));
    std::filesystem::remove_all(root_);
    cluster::ClusterOptions opts;
    opts.nodes = 3;
    opts.root = root_;
    opts.daemon_options.chunk_size = 64 * 1024;  // small for test speed
    opts.daemon_options.kv_options.background_compaction = false;
    opts.transport = GetParam();
    auto c = cluster::Cluster::start(opts);
    ASSERT_TRUE(c.is_ok()) << c.status().to_string();
    cluster_ = std::move(*c);
    mnt_ = cluster_->mount();
  }

  void TearDown() override {
    mnt_.reset();
    cluster_.reset();
    std::filesystem::remove_all(root_);
  }

  std::filesystem::path root_;
  std::unique_ptr<cluster::Cluster> cluster_;
  std::unique_ptr<fs::Mount> mnt_;
};

TEST_P(SmokeTest, CreateStatRemove) {
  auto fd = mnt_->open("/hello.txt", fs::create | fs::wr_only);
  ASSERT_TRUE(fd.is_ok()) << fd.status().to_string();
  EXPECT_TRUE(fs::FileMap::owns(*fd));

  auto md = mnt_->stat("/hello.txt");
  ASSERT_TRUE(md.is_ok());
  EXPECT_EQ(md->size, 0u);
  EXPECT_FALSE(md->is_directory());

  EXPECT_TRUE(mnt_->close(*fd).is_ok());
  EXPECT_TRUE(mnt_->unlink("/hello.txt").is_ok());
  EXPECT_EQ(mnt_->stat("/hello.txt").code(), Errc::not_found);
}

TEST_P(SmokeTest, WriteReadRoundTripAcrossChunks) {
  // 300 KiB spans ~5 chunks at 64 KiB -> multiple daemons involved.
  std::vector<std::uint8_t> data(300 * 1024);
  Xoshiro256 rng(99);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng());

  auto fd = mnt_->open("/data.bin", fs::create | fs::rd_wr);
  ASSERT_TRUE(fd.is_ok());
  auto written = mnt_->pwrite(*fd, data, 0);
  ASSERT_TRUE(written.is_ok()) << written.status().to_string();
  EXPECT_EQ(*written, data.size());

  auto md = mnt_->fstat(*fd);
  ASSERT_TRUE(md.is_ok());
  EXPECT_EQ(md->size, data.size());

  std::vector<std::uint8_t> out(data.size());
  auto read = mnt_->pread(*fd, out, 0);
  ASSERT_TRUE(read.is_ok());
  EXPECT_EQ(*read, data.size());
  EXPECT_EQ(out, data);

  // Unaligned sub-range read.
  std::vector<std::uint8_t> mid(70000);
  read = mnt_->pread(*fd, mid, 12345);
  ASSERT_TRUE(read.is_ok());
  EXPECT_EQ(*read, mid.size());
  EXPECT_TRUE(std::equal(mid.begin(), mid.end(), data.begin() + 12345));

  EXPECT_TRUE(mnt_->close(*fd).is_ok());
  EXPECT_TRUE(mnt_->unlink("/data.bin").is_ok());
}

TEST_P(SmokeTest, DirectoriesAndReaddir) {
  ASSERT_TRUE(mnt_->mkdir("/exp").is_ok());
  for (int i = 0; i < 20; ++i) {
    auto fd = mnt_->open("/exp/f" + std::to_string(i),
                         fs::create | fs::wr_only);
    ASSERT_TRUE(fd.is_ok());
    ASSERT_TRUE(mnt_->close(*fd).is_ok());
  }
  auto dirfd = mnt_->opendir("/exp");
  ASSERT_TRUE(dirfd.is_ok()) << dirfd.status().to_string();
  int count = 0;
  while (true) {
    auto e = mnt_->readdir(*dirfd);
    ASSERT_TRUE(e.is_ok());
    if (!e->has_value()) break;
    ++count;
  }
  EXPECT_EQ(count, 20);
  EXPECT_TRUE(mnt_->closedir(*dirfd).is_ok());

  EXPECT_EQ(mnt_->rmdir("/exp").code(), Errc::not_empty);
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(mnt_->unlink("/exp/f" + std::to_string(i)).is_ok());
  }
  EXPECT_TRUE(mnt_->rmdir("/exp").is_ok());
}

TEST_P(SmokeTest, RenameIsUnsupportedByDesign) {
  EXPECT_EQ(mnt_->rename("/a", "/b").code(), Errc::not_supported);
  EXPECT_EQ(mnt_->link("/a", "/b").code(), Errc::not_supported);
}

TEST_P(SmokeTest, PersistenceAcrossDaemonRestart) {
  std::vector<std::uint8_t> payload = {'g', 'e', 'k', 'k', 'o'};
  auto fd = mnt_->open("/persist.txt", fs::create | fs::wr_only);
  ASSERT_TRUE(fd.is_ok());
  ASSERT_TRUE(mnt_->pwrite(*fd, payload, 0).is_ok());
  ASSERT_TRUE(mnt_->close(*fd).is_ok());
  // A restarted loopback daemon gets a new endpoint, so only a hosted
  // transport's mount survives the restart (it recovers by redial).
  if (GetParam() == cluster::ClusterTransport::loopback) mnt_.reset();

  for (std::uint32_t i = 0; i < cluster_->node_count(); ++i) {
    ASSERT_TRUE(cluster_->restart_daemon(i).is_ok());
  }
  if (!mnt_) mnt_ = cluster_->mount();

  auto md = mnt_->stat("/persist.txt");
  ASSERT_TRUE(md.is_ok()) << md.status().to_string();
  EXPECT_EQ(md->size, payload.size());

  auto rfd = mnt_->open("/persist.txt", fs::rd_only);
  ASSERT_TRUE(rfd.is_ok());
  std::vector<std::uint8_t> out(payload.size());
  auto n = mnt_->pread(*rfd, out, 0);
  ASSERT_TRUE(n.is_ok());
  EXPECT_EQ(out, payload);
}

TEST_P(SmokeTest, WrappingBulkOffsetIsRefused) {
  // A chunk request whose slice sits at bulk_offset 2^64 - 4096: an
  // `offset + len > size` check wraps and passes, and the daemon would
  // then copy 4 KiB from (write) or into (read) the memory just before
  // the request's bulk buffer. Both must be refused before any slice
  // runs, and the daemon must keep serving.
  auto fd = mnt_->open("/wrap", fs::create | fs::wr_only);
  ASSERT_TRUE(fd.is_ok());
  ASSERT_TRUE(mnt_->close(*fd).is_ok());
  const std::uint32_t target =
      mnt_->client().distributor().chunk_target("/wrap", 0);
  const net::EndpointId daemon = cluster_->daemon_endpoints()[target];
  rpc::Engine& engine = mnt_->client().engine();

  constexpr std::uint32_t kLen = 4096;
  proto::ChunkIoRequest req;
  req.path = "/wrap";
  req.slices.push_back(proto::ChunkSlice{
      .chunk_id = 0,
      .offset_in_chunk = 0,
      .length = kLen,
      .bulk_offset = std::numeric_limits<std::uint64_t>::max() - kLen + 1});

  std::vector<std::uint8_t> payload(kLen, 0x5A);
  auto wr = engine.forward(daemon, proto::to_wire(proto::RpcId::write_chunks),
                           req.encode(), net::BulkRegion::expose_read(payload));
  EXPECT_EQ(wr.code(), Errc::invalid_argument) << wr.status().to_string();

  std::vector<std::uint8_t> sink(kLen, 0);
  auto rd = engine.forward(daemon, proto::to_wire(proto::RpcId::read_chunks),
                           req.encode(), net::BulkRegion::expose_write(sink));
  EXPECT_EQ(rd.code(), Errc::invalid_argument) << rd.status().to_string();

  // The daemon still serves, and chunk 0 holds nothing the refused
  // write could have stored.
  req.slices[0].bulk_offset = 0;
  std::vector<std::uint8_t> back(kLen, 0xFF);
  auto ok = engine.forward(daemon, proto::to_wire(proto::RpcId::read_chunks),
                           req.encode(), net::BulkRegion::expose_write(back));
  ASSERT_TRUE(ok.is_ok()) << ok.status().to_string();
  EXPECT_EQ(back, std::vector<std::uint8_t>(kLen, 0));
}

INSTANTIATE_TEST_SUITE_P(
    Transports, SmokeTest,
    ::testing::Values(cluster::ClusterTransport::loopback,
                      cluster::ClusterTransport::uds,
                      cluster::ClusterTransport::tcp),
    [](const ::testing::TestParamInfo<cluster::ClusterTransport>& info) {
      switch (info.param) {
        case cluster::ClusterTransport::loopback:
          return "loopback";
        case cluster::ClusterTransport::uds:
          return "uds";
        case cluster::ClusterTransport::tcp:
          return "tcp";
      }
      return "unknown";
    });

}  // namespace
}  // namespace gekko

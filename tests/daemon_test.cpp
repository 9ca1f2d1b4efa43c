// Daemon-side tests: metadata backend semantics, the size-merge
// operator, dirent sharding, and RPC handlers through a real engine.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <thread>
#include <vector>

#include "common/lockdep.h"
#include "common/metrics.h"
#include "daemon/daemon.h"
#include "daemon/metadata_backend.h"
#include "daemon/metadata_merge.h"
#include "proto/messages.h"
#include "rpc/engine.h"

namespace gekko::daemon {
namespace {

// Run the suite with the runtime lock-order validator on: daemon/rpc
// paths take several locks per request, so inversions abort here.
const bool kLockdepOn = [] {
  gekko::lockdep::set_enabled(true);
  return true;
}();

std::filesystem::path fresh_dir(const char* tag) {
  auto dir = std::filesystem::temp_directory_path() /
             (std::string("gekko_daemon_") + tag + "_" +
              std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  return dir;
}

proto::Metadata regular_md(std::uint64_t size = 0) {
  proto::Metadata md;
  md.type = proto::FileType::regular;
  md.size = size;
  md.ctime_ns = md.mtime_ns = 1000;
  return md;
}

// ---------- merge operator ----------

TEST(MetadataMergeTest, GrowToKeepsMax) {
  MetadataMergeOperator op;
  const std::string base = regular_md(100).encode();
  std::string merged =
      op.merge("/f", &base, encode_size_operand(SizeOp::grow_to, 500, 2000));
  auto md = proto::Metadata::decode(merged);
  ASSERT_TRUE(md.is_ok());
  EXPECT_EQ(md->size, 500u);
  EXPECT_EQ(md->mtime_ns, 2000);

  merged =
      op.merge("/f", &merged, encode_size_operand(SizeOp::grow_to, 300, 1500));
  md = proto::Metadata::decode(merged);
  EXPECT_EQ(md->size, 500u);      // 300 < 500: no shrink
  EXPECT_EQ(md->mtime_ns, 2000);  // mtime keeps max too
}

TEST(MetadataMergeTest, SetToOverridesForTruncate) {
  MetadataMergeOperator op;
  const std::string base = regular_md(1000).encode();
  const std::string merged =
      op.merge("/f", &base, encode_size_operand(SizeOp::set_to, 10, 3000));
  auto md = proto::Metadata::decode(merged);
  EXPECT_EQ(md->size, 10u);
}

TEST(MetadataMergeTest, MissingBaseYieldsDefaultRecord) {
  MetadataMergeOperator op;
  const std::string merged =
      op.merge("/f", nullptr, encode_size_operand(SizeOp::grow_to, 42, 1));
  auto md = proto::Metadata::decode(merged);
  ASSERT_TRUE(md.is_ok());
  EXPECT_EQ(md->size, 42u);
}

TEST(MetadataMergeTest, FullMergeMatchesOneAtATime) {
  // full_merge (one decode, one encode) must equal merge() applied
  // oldest to newest, including truncates and a malformed operand.
  MetadataMergeOperator op;
  const std::string base = regular_md(100).encode();
  std::vector<std::string> newest_first = {
      encode_size_operand(SizeOp::grow_to, 700, 9),
      "junk",
      encode_size_operand(SizeOp::set_to, 50, 4),
      encode_size_operand(SizeOp::grow_to, 300, 7),
      encode_size_operand(SizeOp::grow_to, 90, 2)};
  const std::string* const cases[] = {&base, nullptr};
  for (const std::string* existing : cases) {
    std::string acc = existing ? *existing : std::string();
    bool have = existing != nullptr;
    for (auto it = newest_first.rbegin(); it != newest_first.rend(); ++it) {
      acc = op.merge("/f", have ? &acc : nullptr, *it);
      have = true;
    }
    EXPECT_EQ(op.full_merge("/f", existing, newest_first), acc);
    EXPECT_EQ(proto::Metadata::decode(acc)->size, 700u);
    EXPECT_EQ(proto::Metadata::decode(acc)->mtime_ns, existing ? 1000 : 9);
  }
}

// ---------- metadata backend ----------

class MetadataBackendTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fresh_dir("mdb");
    kv::Options opts;
    opts.background_compaction = false;
    auto mb = MetadataBackend::open(dir_, opts);
    ASSERT_TRUE(mb.is_ok());
    mb_ = std::move(*mb);
  }
  void TearDown() override {
    mb_.reset();
    std::filesystem::remove_all(dir_);
  }

  std::filesystem::path dir_;
  std::unique_ptr<MetadataBackend> mb_;
};

TEST_F(MetadataBackendTest, CreateGetRemoveCycle) {
  ASSERT_TRUE(mb_->create("/a", regular_md()).is_ok());
  EXPECT_EQ(mb_->create("/a", regular_md()).code(), Errc::exists);
  auto md = mb_->get("/a");
  ASSERT_TRUE(md.is_ok());
  EXPECT_EQ(md->size, 0u);

  auto removed = mb_->remove("/a");
  ASSERT_TRUE(removed.is_ok());
  EXPECT_EQ(mb_->get("/a").code(), Errc::not_found);
  EXPECT_EQ(mb_->remove("/a").code(), Errc::not_found);
}

TEST_F(MetadataBackendTest, UpdateSizeIsMonotonicMax) {
  ASSERT_TRUE(mb_->create("/f", regular_md()).is_ok());
  ASSERT_TRUE(mb_->update_size("/f", 100, 10).is_ok());
  ASSERT_TRUE(mb_->update_size("/f", 50, 20).is_ok());
  EXPECT_EQ(mb_->get("/f")->size, 100u);
  ASSERT_TRUE(mb_->set_size("/f", 10).is_ok());
  EXPECT_EQ(mb_->get("/f")->size, 10u);
}

TEST_F(MetadataBackendTest, DirentsFilterDirectChildren) {
  proto::Metadata dir_md;
  dir_md.type = proto::FileType::directory;
  ASSERT_TRUE(mb_->create("/d", dir_md).is_ok());
  ASSERT_TRUE(mb_->create("/d/x", regular_md()).is_ok());
  ASSERT_TRUE(mb_->create("/d/y", dir_md).is_ok());
  ASSERT_TRUE(mb_->create("/d/y/deep", regular_md()).is_ok());
  ASSERT_TRUE(mb_->create("/dz", regular_md()).is_ok());  // sibling, not child

  auto entries = mb_->dirents("/d");
  ASSERT_TRUE(entries.is_ok());
  ASSERT_EQ(entries->size(), 2u);
  EXPECT_EQ((*entries)[0].name, "x");
  EXPECT_EQ((*entries)[0].type, proto::FileType::regular);
  EXPECT_EQ((*entries)[1].name, "y");
  EXPECT_EQ((*entries)[1].type, proto::FileType::directory);

  auto root_entries = mb_->dirents("/");
  ASSERT_TRUE(root_entries.is_ok());
  EXPECT_EQ(root_entries->size(), 2u);  // /d and /dz
}

TEST_F(MetadataBackendTest, EntryCount) {
  EXPECT_EQ(*mb_->entry_count(), 0u);
  for (int i = 0; i < 25; ++i) {
    ASSERT_TRUE(
        mb_->create("/n/" + std::to_string(i), regular_md()).is_ok());
  }
  EXPECT_EQ(*mb_->entry_count(), 25u);
}

// ---------- daemon RPC handlers over a real engine ----------

class DaemonRpcTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fresh_dir("rpc");
    DaemonOptions opts;
    opts.chunk_size = 4096;
    opts.kv_options.background_compaction = false;
    auto d = GekkoDaemon::start(fabric_, dir_, opts);
    ASSERT_TRUE(d.is_ok());
    daemon_ = std::move(*d);
    client_ = std::make_unique<rpc::Engine>(fabric_,
                                            rpc::EngineOptions{.name = "t"});
  }
  void TearDown() override {
    client_.reset();
    daemon_.reset();
    std::filesystem::remove_all(dir_);
  }

  Result<std::vector<std::uint8_t>> call(proto::RpcId id,
                                         std::vector<std::uint8_t> payload,
                                         net::BulkRegion bulk = {}) {
    return client_->forward(daemon_->endpoint(), proto::to_wire(id),
                            std::move(payload), bulk);
  }

  net::LoopbackFabric fabric_;
  std::filesystem::path dir_;
  std::unique_ptr<GekkoDaemon> daemon_;
  std::unique_ptr<rpc::Engine> client_;
};

TEST_F(DaemonRpcTest, CreateStatRemoveViaRpc) {
  proto::CreateRequest create;
  create.path = "/rpc-file";
  create.ctime_ns = 777;
  ASSERT_TRUE(call(proto::RpcId::create, create.encode()).is_ok());
  EXPECT_EQ(call(proto::RpcId::create, create.encode()).code(),
            Errc::exists);

  proto::PathRequest stat_req{"/rpc-file"};
  auto stat_resp = call(proto::RpcId::stat, stat_req.encode());
  ASSERT_TRUE(stat_resp.is_ok());
  auto decoded = proto::StatResponse::decode(std::string_view(
      reinterpret_cast<const char*>(stat_resp->data()), stat_resp->size()));
  ASSERT_TRUE(decoded.is_ok());
  EXPECT_EQ(decoded->metadata.ctime_ns, 777);

  auto remove_resp = call(proto::RpcId::remove_metadata, stat_req.encode());
  ASSERT_TRUE(remove_resp.is_ok());
  EXPECT_EQ(call(proto::RpcId::stat, stat_req.encode()).code(),
            Errc::not_found);
}

TEST_F(DaemonRpcTest, WriteThenReadChunksViaBulk) {
  std::vector<std::uint8_t> data(6000);  // crosses the 4096 chunk boundary
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i);
  }
  proto::ChunkIoRequest wr;
  wr.path = "/bulk";
  wr.slices = {{0, 0, 4096, 0}, {1, 0, 1904, 4096}};
  auto wresp = call(proto::RpcId::write_chunks, wr.encode(),
                    net::BulkRegion::expose_read(data));
  ASSERT_TRUE(wresp.is_ok()) << wresp.status().to_string();
  auto wdecoded = proto::ChunkIoResponse::decode(std::string_view(
      reinterpret_cast<const char*>(wresp->data()), wresp->size()));
  EXPECT_EQ(wdecoded->bytes, 6000u);

  std::vector<std::uint8_t> out(6000, 0);
  auto rresp = call(proto::RpcId::read_chunks, wr.encode(),
                    net::BulkRegion::expose_write(out));
  ASSERT_TRUE(rresp.is_ok());
  EXPECT_EQ(out, data);
}

TEST_F(DaemonRpcTest, ParallelSliceIoRoundTripsAndRecordsMetrics) {
  // Many-slice requests against a daemon with a real io pool: slices
  // fan out as independent tasks and every byte still lands in (and
  // reads back from) the right chunk. A private registry proves the
  // io-pool instrumentation fires.
  const auto dir = fresh_dir("pario");
  metrics::Registry registry;
  DaemonOptions opts;
  opts.chunk_size = 4096;
  opts.io_threads = 4;
  opts.kv_options.background_compaction = false;
  opts.registry = &registry;
  net::LoopbackFabric fabric;
  auto d = GekkoDaemon::start(fabric, dir, opts);
  ASSERT_TRUE(d.is_ok()) << d.status().to_string();
  rpc::Engine client(fabric, rpc::EngineOptions{.name = "par"});

  constexpr std::size_t kSlices = 24;
  std::vector<std::uint8_t> data(kSlices * 4096);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i * 17 + 3);
  }
  proto::ChunkIoRequest rq;
  rq.path = "/par";
  for (std::size_t i = 0; i < kSlices; ++i) {
    rq.slices.push_back({i, 0, 4096, i * 4096});
  }
  for (int round = 0; round < 3; ++round) {
    auto wresp =
        client.forward((*d)->endpoint(), proto::to_wire(proto::RpcId::write_chunks),
                       rq.encode(), net::BulkRegion::expose_read(data));
    ASSERT_TRUE(wresp.is_ok()) << wresp.status().to_string();
    auto wdec = proto::ChunkIoResponse::decode(std::string_view(
        reinterpret_cast<const char*>(wresp->data()), wresp->size()));
    ASSERT_TRUE(wdec.is_ok());
    EXPECT_EQ(wdec->bytes, data.size());
  }
  std::vector<std::uint8_t> out(data.size(), 0);
  auto rresp =
      client.forward((*d)->endpoint(), proto::to_wire(proto::RpcId::read_chunks),
                     rq.encode(), net::BulkRegion::expose_write(out));
  ASSERT_TRUE(rresp.is_ok()) << rresp.status().to_string();
  EXPECT_EQ(out, data);

  const auto snap = registry.snapshot();
  const auto q = snap.histograms.find("daemon.io.queue");
  const auto s = snap.histograms.find("daemon.io.service");
  ASSERT_NE(q, snap.histograms.end());
  ASSERT_NE(s, snap.histograms.end());
  // 4 requests x 24 slices, each slice one pool task.
  EXPECT_EQ(s->second.count, 4u * kSlices);
  EXPECT_EQ(q->second.count, 4u * kSlices);
  (*d)->shutdown();
  std::filesystem::remove_all(dir);
}

TEST_F(DaemonRpcTest, TruncateHandlersEnforceExistence) {
  proto::TruncateRequest tr;
  tr.path = "/absent";
  tr.new_size = 0;
  EXPECT_EQ(call(proto::RpcId::truncate_metadata, tr.encode()).code(),
            Errc::not_found);
  // truncate_data on an absent path is a no-op (chunks may simply not
  // exist on this daemon).
  EXPECT_TRUE(call(proto::RpcId::truncate_data, tr.encode()).is_ok());
}

TEST_F(DaemonRpcTest, SizeUpdateToMissingPathIsRefused) {
  proto::UpdateSizeRequest up;
  up.path = "/nowhere";
  up.observed_size = 4096;
  up.mtime_ns = 1;
  EXPECT_EQ(call(proto::RpcId::update_size, up.encode()).code(),
            Errc::not_found);
  proto::PathRequest stat_req{"/nowhere"};
  EXPECT_EQ(call(proto::RpcId::stat, stat_req.encode()).code(),
            Errc::not_found);

  // truncate_metadata refuses a directory under the same lock.
  proto::CreateRequest mk;
  mk.path = "/dir";
  mk.type = static_cast<std::uint8_t>(proto::FileType::directory);
  ASSERT_TRUE(call(proto::RpcId::create, mk.encode()).is_ok());
  proto::TruncateRequest tr;
  tr.path = "/dir";
  tr.new_size = 0;
  EXPECT_EQ(call(proto::RpcId::truncate_metadata, tr.encode()).code(),
            Errc::is_directory);
}

// Size updates race stats on one hot path: every K-th update folds the
// key's chain under the kv write lock while readers fold what is
// stacked. No reader may see the size shrink or miss an update that was
// acknowledged before its stat began. Runs under `ctest -L sanitize`.
TEST_F(DaemonRpcTest, ConcurrentSizeUpdatesAndStatsStayMonotonic) {
  constexpr std::uint64_t kWriters = 4;
  constexpr int kReaders = 2;
  constexpr std::uint64_t kUpdates = 2000;
  proto::CreateRequest create;
  create.path = "/hot";
  ASSERT_TRUE(call(proto::RpcId::create, create.encode()).is_ok());
  const proto::PathRequest stat_req{"/hot"};

  auto stat_size = [&]() -> Result<std::uint64_t> {
    auto resp = call(proto::RpcId::stat, stat_req.encode());
    if (!resp) return resp.status();
    auto decoded = proto::StatResponse::decode(std::string_view(
        reinterpret_cast<const char*>(resp->data()), resp->size()));
    if (!decoded) return decoded.status();
    return decoded->metadata.size;
  };

  std::atomic<std::uint64_t> acked{0};  // largest acknowledged size
  std::atomic<std::uint64_t> writers_left{kWriters};
  std::atomic<std::uint64_t> failures{0}, shrinks{0}, stale{0}, stats{0};
  std::vector<std::thread> threads;
  for (std::uint64_t w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      for (std::uint64_t i = 0; i < kUpdates; ++i) {
        proto::UpdateSizeRequest up;
        up.path = "/hot";
        up.observed_size = (i * kWriters + w + 1) * 16;
        up.mtime_ns = static_cast<std::int64_t>(i);
        if (!call(proto::RpcId::update_size, up.encode()).is_ok()) {
          failures.fetch_add(1);
          continue;
        }
        std::uint64_t cur = acked.load();
        while (cur < up.observed_size &&
               !acked.compare_exchange_weak(cur, up.observed_size)) {
        }
      }
      writers_left.fetch_sub(1);
    });
  }
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&] {
      std::uint64_t last = 0;
      while (writers_left.load() > 0) {
        const std::uint64_t floor = acked.load();
        auto size = stat_size();
        if (!size) {
          failures.fetch_add(1);
          continue;
        }
        stats.fetch_add(1);
        if (*size < last) shrinks.fetch_add(1);
        if (*size < floor) stale.fetch_add(1);
        last = *size;
      }
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(failures.load(), 0u);
  EXPECT_EQ(shrinks.load(), 0u);
  EXPECT_EQ(stale.load(), 0u);
  EXPECT_GT(stats.load(), 0u);
  auto final_size = stat_size();
  ASSERT_TRUE(final_size.is_ok());
  EXPECT_EQ(*final_size, kUpdates * kWriters * 16);
}

TEST_F(DaemonRpcTest, DaemonStatCountsEntries) {
  for (int i = 0; i < 5; ++i) {
    proto::CreateRequest create;
    create.path = "/s/" + std::to_string(i);
    ASSERT_TRUE(call(proto::RpcId::create, create.encode()).is_ok());
  }
  auto resp = call(proto::RpcId::daemon_stat, {});
  ASSERT_TRUE(resp.is_ok());
  auto decoded = proto::DaemonStatResponse::decode(std::string_view(
      reinterpret_cast<const char*>(resp->data()), resp->size()));
  ASSERT_TRUE(decoded.is_ok());
  EXPECT_EQ(decoded->metadata_entries, 5u);
}

TEST_F(DaemonRpcTest, MalformedPayloadYieldsCorruption) {
  EXPECT_EQ(call(proto::RpcId::create, {0xff}).code(), Errc::corruption);
  EXPECT_EQ(call(proto::RpcId::write_chunks, {1, 2, 3}).code(),
            Errc::corruption);
}

}  // namespace
}  // namespace gekko::daemon

// Mount/client semantics: open flags, positional vs streaming I/O,
// append, lseek, truncate, sparse files, size-update cache, the file
// map, and the GekkoFS POSIX relaxations.
#include <gtest/gtest.h>

#include <filesystem>

#include "client/size_cache.h"
#include "cluster/cluster.h"
#include "common/rng.h"

namespace gekko {
namespace {

class MountTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = std::filesystem::temp_directory_path() /
            ("gekko_fs_" + std::to_string(::getpid()));
    std::filesystem::remove_all(root_);
    cluster::ClusterOptions opts;
    opts.nodes = 2;
    opts.root = root_;
    opts.daemon_options.chunk_size = 16 * 1024;
    opts.daemon_options.kv_options.background_compaction = false;
    auto c = cluster::Cluster::start(opts);
    ASSERT_TRUE(c.is_ok());
    cluster_ = std::move(*c);
    mnt_ = cluster_->mount();
  }
  void TearDown() override {
    mnt_.reset();
    cluster_.reset();
    std::filesystem::remove_all(root_);
  }

  std::vector<std::uint8_t> bytes(std::string_view s) {
    return std::vector<std::uint8_t>(s.begin(), s.end());
  }

  std::filesystem::path root_;
  std::unique_ptr<cluster::Cluster> cluster_;
  std::unique_ptr<fs::Mount> mnt_;
};

// ---------- open flags ----------

TEST_F(MountTest, OpenRequiresExactlyOneAccessMode) {
  EXPECT_EQ(mnt_->open("/f", fs::create).code(), Errc::invalid_argument);
  EXPECT_EQ(mnt_->open("/f", fs::rd_only | fs::wr_only).code(),
            Errc::invalid_argument);
}

TEST_F(MountTest, OpenWithoutCreateNeedsExistingFile) {
  EXPECT_EQ(mnt_->open("/missing", fs::rd_only).code(), Errc::not_found);
}

TEST_F(MountTest, ExclFailsOnExisting) {
  auto fd = mnt_->open("/f", fs::create | fs::wr_only);
  ASSERT_TRUE(fd.is_ok());
  ASSERT_TRUE(mnt_->close(*fd).is_ok());
  EXPECT_EQ(mnt_->open("/f", fs::create | fs::excl | fs::wr_only).code(),
            Errc::exists);
  // Without excl, opening an existing file via create succeeds.
  auto fd2 = mnt_->open("/f", fs::create | fs::wr_only);
  EXPECT_TRUE(fd2.is_ok());
}

TEST_F(MountTest, TruncFlagEmptiesFile) {
  auto fd = mnt_->open("/f", fs::create | fs::wr_only);
  ASSERT_TRUE(mnt_->pwrite(*fd, bytes("hello world"), 0).is_ok());
  ASSERT_TRUE(mnt_->close(*fd).is_ok());
  auto fd2 = mnt_->open("/f", fs::create | fs::trunc | fs::wr_only);
  ASSERT_TRUE(fd2.is_ok());
  EXPECT_EQ(mnt_->fstat(*fd2)->size, 0u);
}

TEST_F(MountTest, WriteOnReadOnlyFdFails) {
  auto fd = mnt_->open("/f", fs::create | fs::wr_only);
  ASSERT_TRUE(mnt_->close(*fd).is_ok());
  auto rfd = mnt_->open("/f", fs::rd_only);
  ASSERT_TRUE(rfd.is_ok());
  EXPECT_EQ(mnt_->pwrite(*rfd, bytes("x"), 0).code(), Errc::bad_fd);
  std::vector<std::uint8_t> out(1);
  auto wfd = mnt_->open("/f", fs::wr_only);
  ASSERT_TRUE(wfd.is_ok());
  EXPECT_EQ(mnt_->pread(*wfd, out, 0).code(), Errc::bad_fd);
}

TEST_F(MountTest, OperationsOnClosedFdFail) {
  auto fd = mnt_->open("/f", fs::create | fs::rd_wr);
  ASSERT_TRUE(mnt_->close(*fd).is_ok());
  EXPECT_EQ(mnt_->close(*fd).code(), Errc::bad_fd);
  EXPECT_EQ(mnt_->pwrite(*fd, bytes("x"), 0).code(), Errc::bad_fd);
  EXPECT_EQ(mnt_->fstat(*fd).code(), Errc::bad_fd);
}

TEST_F(MountTest, FdsLiveInTheirOwnNumberSpace) {
  auto fd = mnt_->open("/f", fs::create | fs::rd_wr);
  ASSERT_TRUE(fd.is_ok());
  EXPECT_GE(*fd, fs::kFdBase);
  EXPECT_TRUE(fs::FileMap::owns(*fd));
  EXPECT_FALSE(fs::FileMap::owns(3));  // a kernel fd stays with the kernel
}

// ---------- streaming I/O ----------

TEST_F(MountTest, SequentialWriteAdvancesPosition) {
  auto fd = mnt_->open("/f", fs::create | fs::rd_wr);
  ASSERT_TRUE(mnt_->write(*fd, bytes("abc")).is_ok());
  ASSERT_TRUE(mnt_->write(*fd, bytes("def")).is_ok());
  std::vector<std::uint8_t> out(6);
  ASSERT_TRUE(mnt_->pread(*fd, out, 0).is_ok());
  EXPECT_EQ(out, bytes("abcdef"));
}

TEST_F(MountTest, ReadAdvancesAndStopsAtEof) {
  auto fd = mnt_->open("/f", fs::create | fs::rd_wr);
  ASSERT_TRUE(mnt_->pwrite(*fd, bytes("0123456789"), 0).is_ok());
  ASSERT_TRUE(mnt_->lseek(*fd, 0, fs::Mount::Whence::set).is_ok());
  std::vector<std::uint8_t> out(4);
  EXPECT_EQ(*mnt_->read(*fd, out), 4u);
  EXPECT_EQ(out, bytes("0123"));
  EXPECT_EQ(*mnt_->read(*fd, out), 4u);
  EXPECT_EQ(out, bytes("4567"));
  EXPECT_EQ(*mnt_->read(*fd, out), 2u);  // only "89" left
  EXPECT_EQ(*mnt_->read(*fd, out), 0u);  // EOF
}

TEST_F(MountTest, AppendAlwaysWritesAtEnd) {
  auto fd = mnt_->open("/log", fs::create | fs::wr_only | fs::append);
  ASSERT_TRUE(mnt_->write(*fd, bytes("one,")).is_ok());
  ASSERT_TRUE(mnt_->write(*fd, bytes("two,")).is_ok());
  // Even after an explicit seek, append mode writes at EOF.
  ASSERT_TRUE(mnt_->lseek(*fd, 0, fs::Mount::Whence::set).is_ok());
  ASSERT_TRUE(mnt_->write(*fd, bytes("three")).is_ok());
  auto rfd = mnt_->open("/log", fs::rd_only);
  std::vector<std::uint8_t> out(13);
  ASSERT_TRUE(mnt_->pread(*rfd, out, 0).is_ok());
  EXPECT_EQ(out, bytes("one,two,three"));
}

TEST_F(MountTest, LseekWhenceVariants) {
  auto fd = mnt_->open("/f", fs::create | fs::rd_wr);
  ASSERT_TRUE(mnt_->pwrite(*fd, bytes("0123456789"), 0).is_ok());
  EXPECT_EQ(*mnt_->lseek(*fd, 4, fs::Mount::Whence::set), 4u);
  EXPECT_EQ(*mnt_->lseek(*fd, 2, fs::Mount::Whence::cur), 6u);
  EXPECT_EQ(*mnt_->lseek(*fd, -3, fs::Mount::Whence::end), 7u);
  EXPECT_EQ(mnt_->lseek(*fd, -100, fs::Mount::Whence::set).code(),
            Errc::invalid_argument);
}

// ---------- sparse files & truncate ----------

TEST_F(MountTest, SparseWriteReadsZeroHoles) {
  auto fd = mnt_->open("/sparse", fs::create | fs::rd_wr);
  // Write at 100 KiB (beyond several 16 KiB chunks); hole before it.
  ASSERT_TRUE(mnt_->pwrite(*fd, bytes("tail"), 100 * 1024).is_ok());
  EXPECT_EQ(mnt_->fstat(*fd)->size, 100 * 1024 + 4);

  std::vector<std::uint8_t> out(8, 0xff);
  ASSERT_TRUE(mnt_->pread(*fd, out, 50 * 1024).is_ok());
  EXPECT_TRUE(std::all_of(out.begin(), out.end(),
                          [](auto b) { return b == 0; }));
  std::vector<std::uint8_t> tail(4);
  ASSERT_TRUE(mnt_->pread(*fd, tail, 100 * 1024).is_ok());
  EXPECT_EQ(tail, bytes("tail"));
}

TEST_F(MountTest, TruncateShrinksAndDataIsGone) {
  auto fd = mnt_->open("/t", fs::create | fs::rd_wr);
  std::vector<std::uint8_t> data(64 * 1024);  // 4 chunks
  Xoshiro256 rng(7);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng());
  ASSERT_TRUE(mnt_->pwrite(*fd, data, 0).is_ok());

  ASSERT_TRUE(mnt_->truncate("/t", 20000).is_ok());
  EXPECT_EQ(mnt_->stat("/t")->size, 20000u);

  // Grow it back: the cut region must read as zeroes, not stale bytes.
  ASSERT_TRUE(mnt_->truncate("/t", 64 * 1024).is_ok());
  std::vector<std::uint8_t> out(1000);
  ASSERT_TRUE(mnt_->pread(*fd, out, 30000).is_ok());
  EXPECT_TRUE(std::all_of(out.begin(), out.end(),
                          [](auto b) { return b == 0; }))
      << "stale data visible after shrink+grow";
  // Within the kept prefix, data is intact.
  std::vector<std::uint8_t> kept(1000);
  ASSERT_TRUE(mnt_->pread(*fd, kept, 10000).is_ok());
  EXPECT_TRUE(std::equal(kept.begin(), kept.end(), data.begin() + 10000));
}

TEST_F(MountTest, TruncateMissingFileFails) {
  EXPECT_EQ(mnt_->truncate("/missing", 10).code(), Errc::not_found);
}

// ---------- directories ----------

TEST_F(MountTest, MkdirSemantics) {
  ASSERT_TRUE(mnt_->mkdir("/d").is_ok());
  EXPECT_EQ(mnt_->mkdir("/d").code(), Errc::exists);
  EXPECT_EQ(mnt_->mkdir("/").code(), Errc::exists);
  EXPECT_TRUE(mnt_->stat("/d")->is_directory());
  // GekkoFS flat namespace: parents are NOT required (unlike POSIX).
  EXPECT_TRUE(mnt_->mkdir("/no/such/parent").is_ok());
}

TEST_F(MountTest, UnlinkDirectoryFails) {
  ASSERT_TRUE(mnt_->mkdir("/d").is_ok());
  EXPECT_EQ(mnt_->unlink("/d").code(), Errc::is_directory);
  EXPECT_TRUE(mnt_->rmdir("/d").is_ok());
}

TEST_F(MountTest, RmdirOnFileFails) {
  auto fd = mnt_->open("/f", fs::create | fs::wr_only);
  ASSERT_TRUE(mnt_->close(*fd).is_ok());
  EXPECT_EQ(mnt_->rmdir("/f").code(), Errc::not_directory);
}

TEST_F(MountTest, OpendirOnFileFails) {
  auto fd = mnt_->open("/f", fs::create | fs::wr_only);
  ASSERT_TRUE(mnt_->close(*fd).is_ok());
  EXPECT_EQ(mnt_->opendir("/f").code(), Errc::not_directory);
}

TEST_F(MountTest, ReaddirListsOnlyDirectChildren) {
  ASSERT_TRUE(mnt_->mkdir("/top").is_ok());
  ASSERT_TRUE(mnt_->mkdir("/top/sub").is_ok());
  for (const char* p : {"/top/a", "/top/b", "/top/sub/nested"}) {
    auto fd = mnt_->open(p, fs::create | fs::wr_only);
    ASSERT_TRUE(fd.is_ok());
    ASSERT_TRUE(mnt_->close(*fd).is_ok());
  }
  auto dirfd = mnt_->opendir("/top");
  ASSERT_TRUE(dirfd.is_ok());
  std::vector<std::string> names;
  while (true) {
    auto e = mnt_->readdir(*dirfd);
    ASSERT_TRUE(e.is_ok());
    if (!e->has_value()) break;
    names.push_back((*e)->name);
  }
  EXPECT_EQ(names, (std::vector<std::string>{"a", "b", "sub"}));
  EXPECT_TRUE(mnt_->closedir(*dirfd).is_ok());
}

TEST_F(MountTest, PathsAreNormalizedBeforeHashing) {
  // The same file through messy spellings must hit the same daemon key.
  auto fd = mnt_->open("//x/../data.bin", fs::create | fs::wr_only);
  ASSERT_TRUE(fd.is_ok());
  ASSERT_TRUE(mnt_->pwrite(*fd, bytes("payload"), 0).is_ok());
  ASSERT_TRUE(mnt_->close(*fd).is_ok());
  EXPECT_EQ(mnt_->stat("/data.bin")->size, 7u);
  EXPECT_EQ(mnt_->stat("/y/./../data.bin")->size, 7u);
  EXPECT_TRUE(mnt_->unlink("/./data.bin").is_ok());
}

// ---------- unlink is final ----------

// A holds /f open and writes; B unlinks it; A writes again through its
// old fd. The late size update must not bring /f back: B's stat,
// readdir, second unlink and O_EXCL create all see the file gone.
TEST_F(MountTest, LateWriteAfterUnlinkDoesNotResurrect) {
  auto other = cluster_->mount();
  const std::vector<std::uint8_t> block(4096, 0xa5);
  auto fd = mnt_->open("/f", fs::create | fs::rd_wr);
  ASSERT_TRUE(fd.is_ok());
  ASSERT_TRUE(mnt_->pwrite(*fd, block, 0).is_ok());
  ASSERT_TRUE(other->unlink("/f").is_ok());

  EXPECT_EQ(mnt_->pwrite(*fd, block, 8192).code(), Errc::not_found);

  EXPECT_EQ(other->stat("/f").code(), Errc::not_found);
  auto dirfd = other->opendir("/");
  ASSERT_TRUE(dirfd.is_ok());
  for (;;) {
    auto e = other->readdir(*dirfd);
    ASSERT_TRUE(e.is_ok());
    if (!e->has_value()) break;
    EXPECT_NE((*e)->name, "f");
  }
  ASSERT_TRUE(other->closedir(*dirfd).is_ok());
  EXPECT_EQ(other->unlink("/f").code(), Errc::not_found);
  EXPECT_EQ(other->stat("/f").code(), Errc::not_found);
  auto fresh = other->open("/f", fs::create | fs::excl | fs::rd_wr);
  ASSERT_TRUE(fresh.is_ok());
  EXPECT_EQ(other->fstat(*fresh)->size, 0u);
}

// With the size cache on, the late write is absorbed and close() is
// where the refused size update surfaces.
TEST_F(MountTest, CachedLateWriteFailsAtClose) {
  client::ClientOptions copts;
  copts.size_cache_interval = 8;
  auto cached = cluster_->mount(copts);
  auto fd = cached->open("/g", fs::create | fs::wr_only);
  ASSERT_TRUE(fd.is_ok());
  ASSERT_TRUE(mnt_->unlink("/g").is_ok());
  EXPECT_TRUE(cached->pwrite(*fd, bytes("late"), 0).is_ok());
  EXPECT_EQ(cached->close(*fd).code(), Errc::not_found);
  // The failed close still released the fd, as POSIX close() does.
  EXPECT_EQ(cached->close(*fd).code(), Errc::bad_fd);
  EXPECT_EQ(mnt_->stat("/g").code(), Errc::not_found);
}

// ---------- size cache unit behaviour ----------

TEST(SizeCacheTest, PassThroughWhenDisabled) {
  client::SizeCache cache(0);
  EXPECT_FALSE(cache.enabled());
  EXPECT_EQ(cache.observe("/f", 100).value(), 100u);
  EXPECT_FALSE(cache.flush("/f").has_value());
}

TEST(SizeCacheTest, AbsorbsUntilInterval) {
  client::SizeCache cache(3);
  EXPECT_FALSE(cache.observe("/f", 10).has_value());
  EXPECT_FALSE(cache.observe("/f", 30).has_value());
  EXPECT_EQ(cache.observe("/f", 20).value(), 30u);  // max so far
  EXPECT_FALSE(cache.observe("/f", 40).has_value());
  EXPECT_EQ(cache.flush("/f").value(), 40u);
  EXPECT_FALSE(cache.flush("/f").has_value());  // drained
}

TEST(SizeCacheTest, PerPathIsolationAndForget) {
  client::SizeCache cache(2);
  EXPECT_FALSE(cache.observe("/a", 1).has_value());
  EXPECT_FALSE(cache.observe("/b", 2).has_value());
  EXPECT_EQ(cache.pending_paths(), 2u);
  cache.forget("/a");
  EXPECT_FALSE(cache.flush("/a").has_value());
  EXPECT_EQ(cache.flush("/b").value(), 2u);
}

class SizeCacheMountTest : public MountTest {};

TEST_F(SizeCacheMountTest, CachedSizesBecomeVisibleOnFsync) {
  client::ClientOptions copts;
  copts.size_cache_interval = 8;
  auto cached_mnt = cluster_->mount(copts);

  auto fd = cached_mnt->open("/shared", fs::create | fs::wr_only);
  ASSERT_TRUE(fd.is_ok());
  std::vector<std::uint8_t> block(1024, 0x5a);
  for (int i = 0; i < 3; ++i) {  // 3 < interval: updates all absorbed
    ASSERT_TRUE(
        cached_mnt->pwrite(*fd, block, static_cast<std::uint64_t>(i) * 1024)
            .is_ok());
  }
  // Another client sees a stale size (weaker metadata freshness is the
  // documented trade of the cache)...
  EXPECT_EQ(mnt_->stat("/shared")->size, 0u);
  // ...until the writer reaches a barrier.
  ASSERT_TRUE(cached_mnt->fsync(*fd).is_ok());
  EXPECT_EQ(mnt_->stat("/shared")->size, 3 * 1024u);
  ASSERT_TRUE(cached_mnt->close(*fd).is_ok());
}

}  // namespace
}  // namespace gekko

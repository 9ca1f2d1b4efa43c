// End-to-end interposition test: UNMODIFIED system binaries (cp, cat,
// ls, stat, rm, mkdir, dd, touch) operate on GekkoFS through the
// LD_PRELOAD shim — the paper's deployment model, demonstrated with
// the paper's own words: "without modifying an application".
//
// Each command runs in a separate process via system(). In embedded
// mode state persists between processes through GKFS_ROOT (WAL/SST/
// chunk files); in attached mode (GKFS_HOSTFILE) the shim talks to
// running gkfsd processes over Unix-domain sockets or TCP.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <charconv>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/fileio.h"
#include "net/stream_fabric.h"

namespace {

/// The sanitizer runtime the test binary itself runs under, found via
/// /proc/self/maps. An ASan-instrumented shim can only be preloaded
/// into an uninstrumented binary (cp, cat, ...) if the runtime comes
/// first in LD_PRELOAD — the loader error says exactly that.
[[maybe_unused]] std::string mapped_runtime(const std::string& needle) {
  std::ifstream maps("/proc/self/maps");
  std::string line;
  while (std::getline(maps, line)) {
    const auto pos = line.find(needle);
    if (pos == std::string::npos) continue;
    const auto start = line.rfind(' ', pos);
    if (start == std::string::npos) continue;
    return line.substr(start + 1);
  }
  return {};
}

/// True once a hostfile address of either family accepts a connection.
bool accepts(const std::string& address) {
  sockaddr_storage ss{};
  socklen_t len = 0;
  if (gekko::net::looks_like_tcp_address(address)) {
    auto* in = reinterpret_cast<sockaddr_in*>(&ss);
    const auto colon = address.rfind(':');
    std::uint16_t port = 0;
    std::from_chars(address.data() + colon + 1,
                    address.data() + address.size(), port);
    in->sin_family = AF_INET;
    in->sin_port = htons(port);
    ::inet_pton(AF_INET, address.substr(0, colon).c_str(), &in->sin_addr);
    len = sizeof(sockaddr_in);
  } else {
    auto* un = reinterpret_cast<sockaddr_un*>(&ss);
    un->sun_family = AF_UNIX;
    std::strncpy(un->sun_path, address.c_str(), sizeof(un->sun_path) - 1);
    len = sizeof(sockaddr_un);
  }
  const int fd = ::socket(ss.ss_family, SOCK_STREAM, 0);
  if (fd < 0) return false;
  const bool ok = ::connect(fd, reinterpret_cast<sockaddr*>(&ss), len) == 0;
  ::close(fd);
  return ok;
}

class PreloadTest : public ::testing::Test {
 protected:
  void SetUp() override {
#if defined(__SANITIZE_THREAD__)
    GTEST_SKIP() << "TSan cannot be injected into uninstrumented "
                    "system binaries via LD_PRELOAD";
#endif
    lib_ = GKFS_PRELOAD_LIB;
    if (!std::filesystem::exists(lib_)) {
      GTEST_SKIP() << "preload library not built: " << lib_;
    }
    root_ = std::filesystem::temp_directory_path() /
            ("gekko_preload_" + std::to_string(::getpid()));
    scratch_ = std::filesystem::temp_directory_path() /
               ("gekko_preload_scratch_" + std::to_string(::getpid()));
    std::filesystem::remove_all(root_);
    std::filesystem::remove_all(scratch_);
    std::filesystem::create_directories(scratch_);
  }
  void TearDown() override {
    for (const pid_t pid : daemons_) {
      ::kill(pid, SIGKILL);
      ::waitpid(pid, nullptr, 0);
    }
    std::filesystem::remove_all(root_);
    std::filesystem::remove_all(scratch_);
  }

  /// Attached mode: start two gkfsd processes on a `transport` hostfile
  /// under root_, wait until both accept connections, and point every
  /// later run() at them through GKFS_HOSTFILE.
  void start_daemons(gekko::net::Transport transport) {
    auto hostfile =
        gekko::net::StreamFabric::write_hostfile(root_ / "net", 2, transport);
    ASSERT_TRUE(hostfile.is_ok()) << hostfile.status().to_string();
    auto content = gekko::io::read_file(*hostfile);
    ASSERT_TRUE(content.is_ok());
    auto hosts = gekko::net::parse_hostfile(*content);
    ASSERT_TRUE(hosts.is_ok());
    for (const auto& [id, address] : *hosts) {
      const std::string id_str = std::to_string(id);
      const std::string data = (root_ / ("node" + id_str)).string();
      const pid_t pid = ::fork();
      ASSERT_GE(pid, 0);
      if (pid == 0) {
        ::execl(GKFSD_BIN, "gkfsd", hostfile->c_str(), id_str.c_str(),
                data.c_str(), static_cast<char*>(nullptr));
        ::_exit(12);  // exec failed
      }
      daemons_.push_back(pid);
      bool up = false;
      for (int i = 0; i < 250 && !up; ++i) {
        up = accepts(address);
        if (!up) ::usleep(20 * 1000);
      }
      ASSERT_TRUE(up) << "gkfsd " << id << " never listened on " << address;
    }
    attach_env_ = " GKFS_HOSTFILE=" + hostfile->string();
  }

  /// cp a file in through the shim, cat it back, compare.
  void expect_cp_cat_round_trip() {
    const auto src = scratch_ / "src.txt";
    std::ofstream(src) << std::string(20000, 'a') << "attached payload\n";
    EXPECT_EQ(run("cp " + src.string() + " /gkfs/attached.txt"), 0);
    EXPECT_EQ(
        run("cat /gkfs/attached.txt > " + (scratch_ / "out.txt").string()),
        0);
    EXPECT_EQ(slurp(scratch_ / "out.txt"), slurp(src));
  }

  /// Run `cmd` under the shim; returns the process exit code.
  /// GEKKO_LOCKDEP=1 keeps the runtime lock-order validator on inside
  /// the shimmed process — a regression guard for the preload.alias
  /// rank bug (the alias lock is entered via interposition from
  /// arbitrary stacks, so it must rank as a leaf; see lockdep.h).
  int run(const std::string& cmd) {
    std::string preload = lib_;
    std::string san_env;
#if defined(__SANITIZE_ADDRESS__)
    // The shim is ASan-instrumented, so the ASan runtime must be the
    // first preloaded object in the (uninstrumented) system binary.
    // Leak checking cp/cat is not the point of this test — the shim's
    // process-lifetime mount/fabric singletons would dominate.
    const std::string asan = mapped_runtime("libasan");
    if (!asan.empty()) preload = asan + ":" + preload;
    san_env = " ASAN_OPTIONS=detect_leaks=0:verify_asan_link_order=0";
#endif
    const std::string full = "LD_PRELOAD=" + preload + " GEKKO_LOCKDEP=1" +
                             san_env +
                             " GKFS_MOUNT=/gkfs GKFS_ROOT=" + root_.string() +
                             attach_env_ + " " + cmd;
    const int rc = std::system(full.c_str());
    return WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
  }

  std::string slurp(const std::filesystem::path& p) {
    std::ifstream in(p);
    return std::string(std::istreambuf_iterator<char>(in), {});
  }

  std::string lib_;
  std::filesystem::path root_;
  std::filesystem::path scratch_;
  std::string attach_env_;      // " GKFS_HOSTFILE=..." in attached mode
  std::vector<pid_t> daemons_;  // attached mode's gkfsd processes
};

TEST_F(PreloadTest, CpIntoGekkofsAndCatBack) {
  const auto src = scratch_ / "src.txt";
  std::ofstream(src) << "interposed payload\n";

  EXPECT_EQ(run("cp " + src.string() + " /gkfs/data.txt"), 0);
  // Separate process: data must round-trip through persisted state.
  EXPECT_EQ(run("cat /gkfs/data.txt > " + (scratch_ / "out.txt").string()),
            0);
  EXPECT_EQ(slurp(scratch_ / "out.txt"), "interposed payload\n");
}

TEST_F(PreloadTest, MkdirLsStatRm) {
  const auto src = scratch_ / "s.txt";
  std::ofstream(src) << "x";

  EXPECT_EQ(run("mkdir /gkfs/dir"), 0);
  EXPECT_EQ(run("cp " + src.string() + " /gkfs/dir/f"), 0);
  EXPECT_EQ(run("ls /gkfs/dir > " + (scratch_ / "ls.txt").string()), 0);
  EXPECT_EQ(slurp(scratch_ / "ls.txt"), "f\n");

  EXPECT_EQ(run("stat -c %s /gkfs/dir/f > " +
                (scratch_ / "size.txt").string()),
            0);
  EXPECT_EQ(slurp(scratch_ / "size.txt"), "1\n");

  EXPECT_NE(run("rmdir /gkfs/dir 2>/dev/null"), 0);  // not empty
  EXPECT_EQ(run("rm /gkfs/dir/f"), 0);
  EXPECT_EQ(run("rmdir /gkfs/dir"), 0);
  EXPECT_NE(run("ls /gkfs/dir 2>/dev/null"), 0);  // gone
}

TEST_F(PreloadTest, DdBothDirections) {
#if defined(__SANITIZE_ADDRESS__)
  // dd calls aligned_alloc(4096, bs) with bs not a multiple of the
  // alignment — fine under glibc, UB per C11 — and ASan's allocator
  // hard-aborts on it. Nothing to do with the shim; the other system
  // binaries keep covering the interposition path under ASan.
  GTEST_SKIP() << "dd's aligned_alloc use trips ASan's allocator";
#endif
  const auto src = scratch_ / "block.bin";
  std::ofstream(src) << std::string(3000, 'G');

  EXPECT_EQ(run("dd if=" + src.string() +
                " of=/gkfs/block bs=512 2>/dev/null"),
            0);
  EXPECT_EQ(run("dd if=/gkfs/block of=" + (scratch_ / "back.bin").string() +
                " bs=700 2>/dev/null"),
            0);
  EXPECT_EQ(slurp(scratch_ / "back.bin"), std::string(3000, 'G'));
}

TEST_F(PreloadTest, TouchCreatesAndRenameIsRefused) {
  EXPECT_EQ(run("touch /gkfs/created"), 0);
  EXPECT_EQ(run("stat /gkfs/created > /dev/null"), 0);
  // rename/mv inside GekkoFS is unsupported by design (paper §III.A).
  EXPECT_NE(run("mv /gkfs/created /gkfs/renamed 2>/dev/null"), 0);
}

TEST_F(PreloadTest, AttachedModeOverUds) {
  start_daemons(gekko::net::Transport::uds);
  expect_cp_cat_round_trip();
}

TEST_F(PreloadTest, AttachedModeOverTcp) {
  start_daemons(gekko::net::Transport::tcp);
  expect_cp_cat_round_trip();
}

TEST_F(PreloadTest, NonGekkofsPathsPassThroughUntouched) {
  const auto plain = scratch_ / "plain.txt";
  EXPECT_EQ(run("cp /etc/hostname " + plain.string() +
                " 2>/dev/null || touch " + plain.string()),
            0);
  EXPECT_TRUE(std::filesystem::exists(plain));
}

}  // namespace

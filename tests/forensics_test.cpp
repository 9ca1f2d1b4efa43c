// Forensics suite: the flight recorder's ring/inflight semantics, the
// FlightDumpResponse wire codec, the postmortem text codec, and — the
// point of the whole subsystem — death tests: a process that dies by
// SIGSEGV must leave behind a postmortem that gkfs-debug can decode
// end to end (backtrace, held locks, in-flight RPCs, flight events
// whose trace ids correlate with the span Tracer's dumps).
//
// The death tests fork(); TSan rejects threads-after-fork, so they
// GTEST_SKIP under __SANITIZE_THREAD__ like the other forked suites.
#include <gtest/gtest.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fcntl.h>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <sys/wait.h>
#include <unistd.h>
#include <vector>

#include "client/client.h"
#include "common/codec.h"
#include "common/crash.h"
#include "common/flight_recorder.h"
#include "common/lockdep.h"
#include "common/metrics.h"
#include "common/thread_annotations.h"
#include "common/trace.h"
#include "fs/mount.h"
#include "net/stream_fabric.h"
#include "proto/messages.h"
#include "workload/fs_adapter.h"
#include "workload/ior.h"

namespace gekko {
namespace {

std::string read_file(const std::filesystem::path& p) {
  std::ifstream in(p, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

// ---------- ring semantics ----------

class FlightRecorderTest : public ::testing::Test {
 protected:
  void SetUp() override { flight::set_enabled(true); }
};

TEST_F(FlightRecorderTest, RecordsAndSnapshots) {
  flight::record_traced(flight::Subsys::kv, flight::ev::kv_flush,
                        /*trace_id=*/0xbeef, /*a0=*/0x1234, /*a1=*/99);
  const auto events = flight::snapshot();
  const flight::Event* found = nullptr;
  for (const auto& e : events) {
    if (e.trace_id == 0xbeef && e.a0 == 0x1234) found = &e;
  }
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->subsys, static_cast<std::uint8_t>(flight::Subsys::kv));
  EXPECT_EQ(found->code, flight::ev::kv_flush);
  EXPECT_EQ(found->a1, 99u);
  EXPECT_GT(found->ts_ns, 0u);
}

TEST_F(FlightRecorderTest, DisabledDropsRecords) {
  flight::RingStats before;
  (void)flight::snapshot(&before);
  flight::set_enabled(false);
  flight::record(flight::Subsys::kv, flight::ev::kv_flush, 0xdead);
  flight::set_enabled(true);
  flight::RingStats after;
  (void)flight::snapshot(&after);
  EXPECT_EQ(after.recorded, before.recorded);
}

TEST_F(FlightRecorderTest, WrapKeepsCountingPastCapacity) {
  flight::RingStats before;
  (void)flight::snapshot(&before);
  // Far more than one ring's capacity from a single thread: the cursor
  // keeps counting, resident events stay bounded (Tracer contract).
  constexpr std::uint64_t kBurst = 1000;
  for (std::uint64_t i = 0; i < kBurst; ++i) {
    flight::record(flight::Subsys::daemon, flight::ev::daemon_io_begin, i);
  }
  flight::RingStats after;
  const auto events = flight::snapshot(&after);
  EXPECT_EQ(after.recorded, before.recorded + kBurst);
  EXPECT_LE(events.size(), after.capacity);
  EXPECT_GT(after.recorded, after.capacity);  // we really did wrap
  // Newest survive the wrap; events are timestamp-sorted.
  bool found_last = false;
  for (const auto& e : events) {
    if (e.subsys == static_cast<std::uint8_t>(flight::Subsys::daemon) &&
        e.a0 == kBurst - 1) {
      found_last = true;
    }
  }
  EXPECT_TRUE(found_last);
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_LE(events[i - 1].ts_ns, events[i].ts_ns);
  }
}

TEST_F(FlightRecorderTest, TagRoundTrip) {
  char out[9];
  flight::untag(flight::tag("creat"), out);
  EXPECT_STREQ(out, "creat");
  flight::untag(flight::tag("writemore"), out);  // truncates at 8
  EXPECT_STREQ(out, "writemor");
  flight::untag(0x01ull | (static_cast<std::uint64_t>('A') << 8), out);
  EXPECT_STREQ(out, ".A");  // non-printable bytes neutralized
}

TEST_F(FlightRecorderTest, InflightTableTracksAndClears) {
  flight::inflight_begin(/*seq=*/100001, /*rpc_id=*/4, /*dest=*/2,
                         /*trace_id=*/0xcafe);
  auto snap = flight::inflight_snapshot();
  const flight::InflightEntry* found = nullptr;
  for (const auto& e : snap) {
    if (e.seq == 100001) found = &e;
  }
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->rpc_id, 4u);
  EXPECT_EQ(found->dest, 2u);
  EXPECT_EQ(found->trace_id, 0xcafeu);
  EXPECT_GT(found->start_ns, 0u);

  flight::inflight_end(100001);
  snap = flight::inflight_snapshot();
  for (const auto& e : snap) EXPECT_NE(e.seq, 100001u);
}

// ---------- FlightDumpResponse wire codec ----------

TEST(FlightDumpCodecTest, RoundTrips) {
  proto::FlightDumpResponse r;
  r.node_id = 7;
  r.capture_ns = 123456789;
  r.recorded = 300;
  r.capacity = 256;
  r.events.push_back({1000, 0xfeed, 42, 9, 3, 1, 1});
  r.events.push_back({2000, 0, flight::tag("unlink"), 0, 1, 5, 1});
  const auto wire = r.encode();
  auto back = proto::FlightDumpResponse::decode(std::string_view(
      reinterpret_cast<const char*>(wire.data()), wire.size()));
  ASSERT_TRUE(back.is_ok()) << back.status().to_string();
  EXPECT_EQ(back->node_id, r.node_id);
  EXPECT_EQ(back->capture_ns, r.capture_ns);
  EXPECT_EQ(back->recorded, r.recorded);
  EXPECT_EQ(back->capacity, r.capacity);
  ASSERT_EQ(back->events.size(), r.events.size());
  EXPECT_EQ(back->events[0], r.events[0]);
  EXPECT_EQ(back->events[1], r.events[1]);
}

TEST(FlightDumpCodecTest, RejectsEventCountBomb) {
  // Header + a varint count of ~2^62 with no event bytes behind it:
  // count_fits() must reject before any reserve() allocates.
  std::vector<std::uint8_t> payload;
  Encoder enc(&payload);
  enc.u32(1);
  enc.u64(1);
  enc.u64(1);
  enc.u64(1);
  enc.varint(0x3fffffffffffffffull);
  auto r = proto::FlightDumpResponse::decode(std::string_view(
      reinterpret_cast<const char*>(payload.data()), payload.size()));
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), Errc::corruption);
}

// ---------- postmortem text codec ----------

TEST(PostmortemCodecTest, RenderParseRoundTrips) {
  flight::Postmortem pm;
  pm.signal = SIGSEGV;
  pm.signal_name = "SIGSEGV";
  pm.node_id = 3;
  pm.pid = 4242;
  pm.capture_ns = 987654321;
  pm.build = "gkfsd test-build";
  pm.backtrace = {"./gkfsd(+0x1234) [0x55aa]", "libc.so.6(+0x5678)"};
  pm.locks.push_back({1, "engine.pending", 220});
  pm.locks.push_back({2, "<anon>", 0});
  pm.inflight.push_back({9, 0xfeed, 1000, 2, 7});
  pm.events.push_back({1000, 0xfeed, 9, 7, 1, 1, 1});
  pm.events.push_back({2000, 0, flight::tag("creat"), 0, 2, 5, 1});
  pm.metrics_json = "{\"counters\":{\"rpc.calls\":42}}";
  pm.log_tail = {"E engine: peer 2 dead", "I daemon: serving"};
  pm.complete = true;

  const std::string text = flight::render_postmortem(pm);
  auto back = flight::parse_postmortem(text);
  ASSERT_TRUE(back.is_ok()) << back.status().to_string();
  EXPECT_EQ(back->signal, pm.signal);
  EXPECT_EQ(back->signal_name, pm.signal_name);
  EXPECT_EQ(back->node_id, pm.node_id);
  EXPECT_EQ(back->pid, pm.pid);
  EXPECT_EQ(back->capture_ns, pm.capture_ns);
  EXPECT_EQ(back->build, pm.build);
  EXPECT_EQ(back->backtrace, pm.backtrace);
  ASSERT_EQ(back->locks.size(), 2u);
  EXPECT_EQ(back->locks[0].name, "engine.pending");
  EXPECT_EQ(back->locks[0].rank, 220);
  ASSERT_EQ(back->inflight.size(), 1u);
  EXPECT_EQ(back->inflight[0].seq, 9u);
  EXPECT_EQ(back->inflight[0].trace_id, 0xfeedu);
  ASSERT_EQ(back->events.size(), 2u);
  EXPECT_EQ(back->events[0], pm.events[0]);
  EXPECT_EQ(back->events[1], pm.events[1]);
  EXPECT_EQ(back->metrics_json, pm.metrics_json);
  EXPECT_EQ(back->log_tail, pm.log_tail);
  EXPECT_TRUE(back->complete);

  // Text fixed point (the fuzz_flight property).
  EXPECT_EQ(flight::render_postmortem(*back), text);
}

TEST(PostmortemCodecTest, ToleratesTruncation) {
  flight::Postmortem pm;
  pm.signal = SIGABRT;
  pm.signal_name = "SIGABRT";
  pm.node_id = 1;
  pm.backtrace = {"frame0", "frame1"};
  pm.events.push_back({10, 0, 1, 0, 1, 4, 1});
  pm.complete = true;
  const std::string full = flight::render_postmortem(pm);
  // Every prefix must parse (a crash-during-crash tears the report at
  // an arbitrary byte) and report complete=false once END is gone.
  for (std::size_t cut = full.size() - 5; cut > 20; cut -= 7) {
    auto r = flight::parse_postmortem(full.substr(0, cut));
    ASSERT_TRUE(r.is_ok()) << "prefix of " << cut << " bytes rejected";
    EXPECT_FALSE(r->complete);
  }
}

TEST(PostmortemCodecTest, RejectsMissingMagic) {
  EXPECT_FALSE(flight::parse_postmortem("not a postmortem\n").is_ok());
  EXPECT_FALSE(flight::parse_postmortem("").is_ok());
}

TEST(PostmortemCodecTest, LiveReportWriterParsesBack) {
  // write_live_report is the SIGUSR2 path; signal 0, no backtrace.
  flight::set_enabled(true);
  flight::record(flight::Subsys::fabric, flight::ev::fabric_connect, 5);
  crash::publish_metrics_json("{\"counters\":{}}");
  const auto path = std::filesystem::temp_directory_path() /
                    ("gekko_live_report_" + std::to_string(::getpid()));
  const int fd = ::open(path.c_str(), O_CREAT | O_WRONLY | O_TRUNC, 0644);
  ASSERT_GE(fd, 0);
  crash::write_live_report(fd);
  ::close(fd);
  auto pm = flight::parse_postmortem(read_file(path));
  std::filesystem::remove(path);
  ASSERT_TRUE(pm.is_ok()) << pm.status().to_string();
  EXPECT_EQ(pm->signal, 0);
  EXPECT_TRUE(pm->complete);
  EXPECT_TRUE(pm->backtrace.empty());
  EXPECT_FALSE(pm->events.empty());
  EXPECT_FALSE(pm->metrics_json.empty());
}

// ---------- in-process death test ----------

class CrashDeathTest : public ::testing::Test {
 protected:
  void SetUp() override {
#if defined(__SANITIZE_THREAD__)
    GTEST_SKIP() << "fork-based death tests unsupported under TSan";
#endif
    dir_ = std::filesystem::temp_directory_path() /
           ("gekko_crash_" + std::to_string(::getpid()));
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::filesystem::path dir_;
};

TEST_F(CrashDeathTest, SegvLeavesDecodablePostmortem) {
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child: arm the black box with known forensic state, then die.
    lockdep::set_enabled(true);
    flight::set_enabled(true);
    crash::InstallOptions opts;
    const std::string dir = dir_.string();
    opts.dir = dir.c_str();
    opts.node_id = 42;
    opts.build_info = "forensics-death-test";
    if (!crash::install(opts).is_ok()) ::_exit(13);
    static Mutex held{"test.crash_held", 10};
    held.lock();
    flight::inflight_begin(/*seq=*/7, /*rpc_id=*/4, /*dest=*/1,
                           /*trace_id=*/0xabc);
    flight::record_traced(flight::Subsys::engine,
                          flight::ev::engine_dispatch, 0xabc, 7, 4);
    crash::publish_metrics_json("{\"counters\":{\"rpc.calls\":1}}");
    ::raise(SIGSEGV);
    ::_exit(14);  // unreachable: the handler re-raises with SIG_DFL
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status));
  EXPECT_EQ(WTERMSIG(status), SIGSEGV);

  // Exactly one postmortem, named for the node and the child pid.
  std::filesystem::path crash_file;
  for (const auto& e : std::filesystem::directory_iterator(dir_)) {
    if (e.path().extension() == ".crash") crash_file = e.path();
  }
  ASSERT_FALSE(crash_file.empty()) << "no .crash file under " << dir_;
  EXPECT_NE(crash_file.filename().string().find("gkfsd.42."),
            std::string::npos);

  auto pm = flight::parse_postmortem(read_file(crash_file));
  ASSERT_TRUE(pm.is_ok()) << pm.status().to_string();
  EXPECT_TRUE(pm->complete);
  EXPECT_EQ(pm->signal, SIGSEGV);
  EXPECT_EQ(pm->signal_name, "SIGSEGV");
  EXPECT_EQ(pm->node_id, 42u);
  EXPECT_EQ(pm->pid, static_cast<std::uint64_t>(pid));
  EXPECT_EQ(pm->build, "forensics-death-test");
  EXPECT_FALSE(pm->backtrace.empty());
  bool lock_found = false;
  for (const auto& l : pm->locks) {
    if (l.name == "test.crash_held") {
      lock_found = true;
      EXPECT_EQ(l.rank, 10);
    }
  }
  EXPECT_TRUE(lock_found) << "held lock missing from [locks]";
  bool rpc_found = false;
  for (const auto& e : pm->inflight) {
    if (e.seq == 7) {
      rpc_found = true;
      EXPECT_EQ(e.rpc_id, 4u);
      EXPECT_EQ(e.trace_id, 0xabcu);
    }
  }
  EXPECT_TRUE(rpc_found) << "in-flight RPC missing from [inflight]";
  bool event_found = false;
  for (const auto& e : pm->events) {
    if (e.trace_id == 0xabc &&
        e.subsys == static_cast<std::uint8_t>(flight::Subsys::engine)) {
      event_found = true;
    }
  }
  EXPECT_TRUE(event_found) << "flight event missing from [flight]";
  EXPECT_NE(pm->metrics_json.find("rpc.calls"), std::string::npos);
}

TEST_F(CrashDeathTest, CleanShutdownLeavesNoCrashFile) {
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    crash::InstallOptions opts;
    const std::string dir = dir_.string();
    opts.dir = dir.c_str();
    if (!crash::install(opts).is_ok()) ::_exit(13);
    crash::disarm();
    ::_exit(0);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  ASSERT_EQ(WEXITSTATUS(status), 0);
  for (const auto& e : std::filesystem::directory_iterator(dir_)) {
    ADD_FAILURE() << "stray file after clean exit: " << e.path();
  }
}

// ---------- end to end over real daemon processes ----------

class ForensicsE2ETest : public ::testing::Test {
 protected:
  void SetUp() override {
#if defined(__SANITIZE_THREAD__)
    GTEST_SKIP() << "fork+exec e2e unsupported under TSan";
#endif
    dir_ = std::filesystem::temp_directory_path() /
           ("gekko_forensics_" + std::to_string(::getpid()));
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_ / "crash");
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  pid_t spawn_daemon(const std::string& hostfile, std::uint32_t id) {
    const pid_t pid = ::fork();
    if (pid == 0) {
      // Child env, not the test's: crash dir + lockdep for the report.
      const std::string crash_dir = (dir_ / "crash").string();
      ::setenv("GEKKO_CRASH_DIR", crash_dir.c_str(), 1);
      ::setenv("GEKKO_LOCKDEP", "1", 1);
      const std::string stderr_file =
          (dir_ / ("gkfsd." + std::to_string(id) + ".stderr")).string();
      const int fd =
          ::open(stderr_file.c_str(), O_CREAT | O_WRONLY | O_APPEND, 0644);
      if (fd >= 0) {
        ::dup2(fd, 2);
        ::close(fd);
      }
      const std::string root = (dir_ / ("node" + std::to_string(id))).string();
      const std::string id_str = std::to_string(id);
      ::execl(GKFSD_BIN, "gkfsd", hostfile.c_str(), id_str.c_str(),
              root.c_str(), "8192", static_cast<char*>(nullptr));
      ::_exit(12);
    }
    return pid;
  }

  std::string run_tool(const std::string& cmd, int* exit_code) {
    FILE* pipe = ::popen((cmd + " 2>&1").c_str(), "r");
    if (pipe == nullptr) {
      *exit_code = -1;
      return {};
    }
    std::string output;
    char buf[512];
    while (std::fgets(buf, sizeof(buf), pipe) != nullptr) output += buf;
    *exit_code = ::pclose(pipe);
    return output;
  }

  std::filesystem::path dir_;
};

TEST_F(ForensicsE2ETest, DaemonCrashDecodesEndToEnd) {
  constexpr std::uint32_t kDaemons = 2;
  auto hostfile =
      net::StreamFabric::write_hostfile(dir_, kDaemons, net::Transport::uds);
  ASSERT_TRUE(hostfile.is_ok());

  std::vector<pid_t> children;
  for (std::uint32_t id = 0; id < kDaemons; ++id) {
    const pid_t pid = spawn_daemon(hostfile->string(), id);
    ASSERT_GE(pid, 0);
    children.push_back(pid);
  }
  for (std::uint32_t id = 0; id < kDaemons; ++id) {
    const auto sock = dir_ / ("gkfsd." + std::to_string(id) + ".sock");
    for (int i = 0; i < 250 && !std::filesystem::exists(sock); ++i) {
      ::usleep(20 * 1000);
    }
    ASSERT_TRUE(std::filesystem::exists(sock)) << sock;
  }

  // Traced workload so daemon flight events carry client trace ids.
  trace::set_enabled(true);
  auto client_fabric = net::StreamFabric::create(*hostfile, {});
  ASSERT_TRUE(client_fabric.is_ok());
  client::ClientOptions copts;
  copts.chunk_size = 8192;
  fs::Mount mnt(**client_fabric, {0, 1}, copts);
  workload::GekkoAdapter adapter(mnt);
  workload::IorConfig ior;
  ior.procs = 2;
  ior.transfer_size = 16 * 1024;  // 2 chunks per transfer → both daemons
  ior.bytes_per_proc = 64 * 1024;
  auto ior_result = workload::run_ior(adapter, ior);
  ASSERT_TRUE(ior_result.is_ok()) << ior_result.status().to_string();

  // Collect the span rings and live flight rings while every daemon is
  // still up (both RPCs are all-or-nothing across the cluster).
  auto span_dumps = mnt.client().trace_dumps();
  ASSERT_TRUE(span_dumps.is_ok()) << span_dumps.status().to_string();
  auto flight_dumps = mnt.client().flight_dumps();
  ASSERT_TRUE(flight_dumps.is_ok()) << flight_dumps.status().to_string();
  ASSERT_EQ(flight_dumps->size(), kDaemons);
  std::set<std::uint32_t> nodes;
  for (const auto& d : *flight_dumps) {
    nodes.insert(d.node_id);
    EXPECT_GT(d.capture_ns, 0u);
    EXPECT_GT(d.capacity, 0u);
    EXPECT_FALSE(d.events.empty());
    EXPECT_GE(d.recorded, d.events.size());
  }
  EXPECT_EQ(nodes, (std::set<std::uint32_t>{0, 1}));
  std::set<std::uint64_t> span_traces;  // node 0's traced spans
  for (const auto& d : *span_dumps) {
    if (d.node_id != 0) continue;
    for (const auto& s : d.spans) span_traces.insert(s.trace_id);
  }
  ASSERT_FALSE(span_traces.empty());

  // Kill daemon 0 the hard way; its handler writes the postmortem
  // before the re-raise delivers the real SIGSEGV death.
  ::kill(children[0], SIGSEGV);
  int status = 0;
  ASSERT_EQ(::waitpid(children[0], &status, 0), children[0]);
  ASSERT_TRUE(WIFSIGNALED(status));
  EXPECT_EQ(WTERMSIG(status), SIGSEGV);

  std::filesystem::path crash_file;
  for (const auto& e :
       std::filesystem::directory_iterator(dir_ / "crash")) {
    if (e.path().filename().string().starts_with("gkfsd.0.")) {
      crash_file = e.path();
    }
  }
  ASSERT_FALSE(crash_file.empty()) << "daemon 0 left no postmortem";

  auto pm = flight::parse_postmortem(read_file(crash_file));
  ASSERT_TRUE(pm.is_ok()) << pm.status().to_string();
  EXPECT_TRUE(pm->complete);
  EXPECT_EQ(pm->signal, SIGSEGV);
  EXPECT_EQ(pm->node_id, 0u);
  EXPECT_FALSE(pm->backtrace.empty());
  ASSERT_FALSE(pm->events.empty());
  // The correlation the black box exists for: at least one postmortem
  // flight event belongs to a trace the span Tracer also captured.
  bool correlated = false;
  for (const auto& e : pm->events) {
    if (e.trace_id != 0 && span_traces.contains(e.trace_id)) {
      correlated = true;
    }
  }
  EXPECT_TRUE(correlated)
      << "no postmortem flight event matches a dumped span trace";

  // gkfs-debug decodes the same file, human and JSON forms.
  int rc = 0;
  const std::string human =
      run_tool(std::string(GKFS_DEBUG_BIN) + " " + crash_file.string(), &rc);
  EXPECT_EQ(rc, 0) << human;
  EXPECT_NE(human.find("SIGSEGV"), std::string::npos) << human;
  EXPECT_NE(human.find("trace"), std::string::npos) << human;
  const std::string json = run_tool(
      std::string(GKFS_DEBUG_BIN) + " " + crash_file.string() + " --json",
      &rc);
  EXPECT_EQ(rc, 0) << json;
  EXPECT_NE(json.find("\"signal\":11"), std::string::npos) << json;
  EXPECT_NE(json.find("\"backtrace\":["), std::string::npos) << json;

  // SIGUSR2 on the surviving daemon: a live report lands on its
  // stderr, parseable from the magic onward, signal 0, END present.
  ::kill(children[1], SIGUSR2);
  const auto stderr_path = dir_ / "gkfsd.1.stderr";
  std::string err_text;
  std::size_t magic_at = std::string::npos;
  for (int i = 0; i < 250; ++i) {
    err_text = read_file(stderr_path);
    magic_at = err_text.find("GEKKO-POSTMORTEM v1");
    if (magic_at != std::string::npos &&
        err_text.find("END", magic_at) != std::string::npos) {
      break;
    }
    ::usleep(20 * 1000);
  }
  ASSERT_NE(magic_at, std::string::npos) << err_text;
  auto live = flight::parse_postmortem(
      std::string_view(err_text).substr(magic_at));
  ASSERT_TRUE(live.is_ok()) << live.status().to_string();
  EXPECT_EQ(live->signal, 0);
  EXPECT_TRUE(live->complete);
  EXPECT_EQ(live->node_id, 1u);
  EXPECT_FALSE(live->events.empty());

  for (std::size_t i = 1; i < children.size(); ++i) {
    ::kill(children[i], SIGKILL);
    ::waitpid(children[i], &status, 0);
  }
}

}  // namespace
}  // namespace gekko

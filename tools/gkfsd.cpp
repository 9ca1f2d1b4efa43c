// gkfsd — the GekkoFS daemon as a standalone process.
//
// This is the deployment unit of the paper: one daemon per node,
// started by the user at job begin (in parallel across nodes), torn
// down at job end. Daemons find each other — and clients find them —
// through a shared hostfile (here: Unix-domain socket paths; on a real
// cluster: Mercury addresses).
//
//   gkfsd <hostfile> <self-id> <data-root> [chunk-size-bytes]
//         [--io-threads <n>] [--transport auto|uds|tcp]
//         [--metrics-port <p>]
//
// --io-threads sizes the daemon's chunk-I/O pool (0 = serial in-handler
// I/O); the default matches DaemonOptions::io_threads.
//
// --transport picks the fabric: "uds" for Unix-domain sockets, "tcp"
// for TCP with the epoll event loop, "auto" (the default) sniffs the
// hostfile — "host:port" addresses mean TCP, socket paths mean UDS.
//
// --metrics-port enables the Prometheus /metrics HTTP endpoint on that
// TCP port (0 = pick an ephemeral port). The bound port is printed to
// stderr as "gkfsd: metrics-port <id> <port>". Sampler cadence comes
// from GEKKO_SAMPLE_MS (default 1000, 0 disables).
//
// Runs until SIGINT/SIGTERM. All state (metadata KV, chunk files)
// lives under <data-root> and survives restarts.
//
// SIGUSR1 dumps a metrics snapshot (JSON) to stderr without stopping
// the daemon; the same snapshot is dumped once at exit (both routed
// through the crash/report module, which also keeps the snapshot
// staged for postmortems). SIGUSR2 dumps a live flight-recorder
// report (locks, in-flight RPCs, recent events) to stderr — decode it
// with gkfs-debug. Fatal signals (SIGSEGV/SIGABRT/SIGBUS/SIGFPE/
// SIGILL) write a postmortem to $GEKKO_CRASH_DIR (stderr when unset)
// before the daemon dies. For live polling across nodes use gkfs-top,
// which reads the same data over the daemon_stat RPC.
#include <charconv>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/crash.h"
#include "daemon/daemon.h"
#include "net/stream_fabric.h"

namespace {

volatile std::sig_atomic_t g_stop = 0;
volatile std::sig_atomic_t g_dump_metrics = 0;
volatile std::sig_atomic_t g_dump_flight = 0;

void handle_signal(int) { g_stop = 1; }

void handle_dump(int) { g_dump_metrics = 1; }

void handle_flight_dump(int) { g_dump_flight = 1; }

/// Strict decimal parse; rejects garbage and trailing junk ("12abc")
/// instead of silently running daemon 0 like strtoul would.
bool parse_u32(const char* arg, std::uint32_t* out) {
  const char* last = arg + std::strlen(arg);
  const auto [ptr, ec] = std::from_chars(arg, last, *out);
  return ec == std::errc() && ptr == last && last != arg;
}

}  // namespace

int main(int argc, char** argv) {
  // Split flags from positional arguments so --io-threads may appear
  // anywhere on the command line.
  std::vector<const char*> positional;
  bool have_io_threads = false;
  std::uint32_t io_threads = 0;
  bool have_metrics_port = false;
  std::uint32_t metrics_port = 0;
  gekko::net::Transport transport = gekko::net::Transport::autodetect;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--io-threads") == 0) {
      if (i + 1 >= argc || !parse_u32(argv[i + 1], &io_threads)) {
        std::fprintf(stderr, "gkfsd: bad --io-threads value\n");
        return 2;
      }
      have_io_threads = true;
      ++i;
    } else if (std::strcmp(argv[i], "--metrics-port") == 0) {
      if (i + 1 >= argc || !parse_u32(argv[i + 1], &metrics_port) ||
          metrics_port > 65535) {
        std::fprintf(stderr, "gkfsd: bad --metrics-port value\n");
        return 2;
      }
      have_metrics_port = true;
      ++i;
    } else if (std::strcmp(argv[i], "--transport") == 0) {
      auto parsed = i + 1 < argc
                        ? gekko::net::parse_transport(argv[i + 1])
                        : gekko::Result<gekko::net::Transport>(
                              gekko::Status{gekko::Errc::invalid_argument,
                                            "missing value"});
      if (!parsed) {
        std::fprintf(stderr, "gkfsd: bad --transport value\n");
        return 2;
      }
      transport = *parsed;
      ++i;
    } else {
      positional.push_back(argv[i]);
    }
  }
  if (positional.size() < 3 || positional.size() > 4) {
    std::fprintf(stderr,
                 "usage: gkfsd <hostfile> <self-id> <data-root> "
                 "[chunk-size-bytes] [--io-threads <n>] "
                 "[--transport auto|uds|tcp] [--metrics-port <p>]\n");
    return 2;
  }
  const char* hostfile = positional[0];
  std::uint32_t self_id = 0;
  if (!parse_u32(positional[1], &self_id)) {
    std::fprintf(stderr, "gkfsd: bad self-id '%s'\n", positional[1]);
    return 2;
  }
  const char* root = positional[2];

  gekko::net::MakeFabricOptions fopts;
  fopts.self_id = self_id;
  fopts.transport = transport;
  auto fabric = gekko::net::make_fabric(hostfile, fopts);
  if (!fabric) {
    std::fprintf(stderr, "gkfsd: fabric: %s\n",
                 fabric.status().to_string().c_str());
    return 1;
  }

  gekko::daemon::DaemonOptions dopts;
  if (positional.size() > 3) {
    if (!parse_u32(positional[3], &dopts.chunk_size) ||
        dopts.chunk_size == 0) {
      std::fprintf(stderr, "gkfsd: bad chunk-size '%s'\n", positional[3]);
      return 2;
    }
  }
  if (have_io_threads) dopts.io_threads = io_threads;
  if (have_metrics_port) {
    dopts.metrics_http_port = static_cast<int>(metrics_port);
  }
  auto daemon = gekko::daemon::GekkoDaemon::start(**fabric, root, dopts);
  if (!daemon) {
    std::fprintf(stderr, "gkfsd: start: %s\n",
                 daemon.status().to_string().c_str());
    return 1;
  }
  if ((*daemon)->metrics_http_port() >= 0) {
    // Parsed by scrape configs and tests (resolves --metrics-port 0).
    std::fprintf(stderr, "gkfsd: metrics-port %u %d\n", self_id,
                 (*daemon)->metrics_http_port());
  }

  // Arm the black box: fatal signals write a postmortem (build info,
  // backtrace, held locks, in-flight RPCs, flight events, the staged
  // metrics snapshot, log tail) to $GEKKO_CRASH_DIR before dying.
  gekko::crash::InstallOptions crash_opts;
  crash_opts.node_id = self_id;
  crash_opts.build_info = "gkfsd";
  if (gekko::Status st = gekko::crash::install(crash_opts); !st.is_ok()) {
    std::fprintf(stderr, "gkfsd: crash reports disabled: %s\n",
                 st.to_string().c_str());
  }

  // One path for every metrics dump (SIGUSR1, exit): stage the
  // snapshot for crash postmortems, then emit the legacy stderr line.
  auto dump_metrics = [&] {
    const std::string json = (*daemon)->metrics_json();
    gekko::crash::publish_metrics_json(json);
    std::fprintf(stderr, "gkfsd: metrics %u %s\n", self_id, json.c_str());
  };

  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);
  std::signal(SIGUSR1, handle_dump);
  std::signal(SIGUSR2, handle_flight_dump);
  std::fprintf(stderr, "gkfsd: daemon %u serving (root=%s)\n", self_id,
               root);
  while (g_stop == 0) {
    ::usleep(100 * 1000);
    if (g_dump_metrics != 0) {
      g_dump_metrics = 0;
      // Snapshot off the signal handler, on the main loop: the
      // handler only sets a flag (metrics_json allocates).
      dump_metrics();
    }
    if (g_dump_flight != 0) {
      g_dump_flight = 0;
      // Live black-box dump without killing the daemon.
      gekko::crash::publish_metrics_json((*daemon)->metrics_json());
      gekko::crash::write_live_report(2);
    }
  }
  std::fprintf(stderr, "gkfsd: daemon %u shutting down\n", self_id);
  dump_metrics();
  (*daemon)->shutdown();
  // Clean exit: drop the armed handlers and the (empty) crash file.
  gekko::crash::disarm();
  return 0;
}

// The GekkoFS benchmark: mdtest and IOR workloads against an in-process
// cluster, with a per-layer latency budget.
//
//   gkfs_perfbench --workload <name> --seed <n> --seconds <s> --trace 0|1
//                  [--root <dir>] [--tiny] [--commit <id>]
//                  [--source-digest <hex>]
//
// Load shape (every workload): 4 closed-loop ranks, each a thread that
// issues its next op only after the previous one returned, all sharing
// one fs::Mount, against 2 daemons booted with default options; only
// the transport, the daemon count and the data root are set. Every path,
// offset order and payload is generated from the seed before timing.
//
// --trace 0 runs the workload through fs::Mount and prints the
// end-to-end metrics. --trace 1 runs it four times: untraced through
// fs::Mount (the reference), traced through fs::Mount (per-op spans
// plus registry / kv / storage / rusage diffs around every phase), then
// replays the same op stream through rpc::Engine::forward with the same
// encoded requests, and through MetadataBackend / ChunkStorage directly.
// Layer self-times are differences between those entry points.
//
// The last stdout line is one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
#include <sys/resource.h>
#include <sys/statfs.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <charconv>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "client/client.h"
#include "cluster/cluster.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "daemon/metadata_merge.h"
#include "oracle.h"
#include "proto/messages.h"

namespace {

using namespace gekko;
using perfbench::PayloadPool;

constexpr int kRanks = 4;
constexpr std::uint32_t kDaemons = 2;
constexpr int kSetupReps = 5;

// ---------------------------------------------------------------- config

enum class Kind { mdtest, ior };

struct Workload {
  const char* name;
  Kind kind;
  cluster::ClusterTransport transport;
  // The timed seconds one iteration takes on a 4-core host: a run does
  // round(--seconds / that) iterations, at least one, so the work (and
  // the kv and memory state it leaves) is fixed by the arguments rather
  // than by how fast the stack is.
  double seconds_per_iteration = 0;
  // mdtest: files each rank creates, stats and removes per iteration.
  std::uint32_t files_per_rank = 0;
  // IOR: transfer size and transfers per rank per pass.
  std::uint32_t xfer = 0;
  std::uint32_t transfers_per_pass = 0;
  // IOR shared file (segmented layout): a block is transfers_per_block
  // transfers; the file is `segments` x (ranks x block). Each rank's
  // pass is a seeded random subset of its transfers in shuffled order.
  bool shared = false;
  std::uint32_t transfers_per_block = 0;
  std::uint64_t segments = 0;
};

Workload make_workload(const std::string& name, bool tiny) {
  using cluster::ClusterTransport;
  if (name == "mdtest_tcp") {
    return {.name = "mdtest_tcp",
            .kind = Kind::mdtest,
            .transport = ClusterTransport::tcp,
            .seconds_per_iteration = tiny ? 0.05 : 16.0,
            .files_per_rank = tiny ? 200u : 75000u};
  }
  if (name == "ior_fpp") {
    // 16 MiB per rank = 32 chunks; 128 chunks over 2 daemons stays far
    // below the 256-descriptor cache of each.
    return {.name = "ior_fpp",
            .kind = Kind::ior,
            .transport = ClusterTransport::loopback,
            .seconds_per_iteration = tiny ? 0.01 : 0.06,
            .xfer = 64 * 1024,
            .transfers_per_pass = tiny ? 16u : 256u};
  }
  if (name == "ior_shared_tcp") {
    // 8192 segments x 4 ranks x 16 KiB = 512 MiB = 1024 chunks; each
    // pass makes 4 x 512 random 4 KiB transfers, which touch about 880
    // of them (some 440 per daemon, well over the 256-descriptor cache).
    return {.name = "ior_shared_tcp",
            .kind = Kind::ior,
            .transport = ClusterTransport::tcp,
            .seconds_per_iteration = tiny ? 0.05 : 0.75,
            .xfer = 4 * 1024,
            .transfers_per_pass = tiny ? 32u : 512u,
            .shared = true,
            .transfers_per_block = 4,
            .segments = tiny ? 64u : 8192u};
  }
  return {.name = nullptr, .kind = Kind::mdtest,
          .transport = ClusterTransport::loopback};
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;
  std::filesystem::path root = ".bench_data";
  std::string commit = "unknown";
  std::string source_digest = "unknown";
};

std::optional<Args> parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--tiny") {
      a.tiny = true;
      continue;
    }
    if (i + 1 >= argc) return std::nullopt;
    const std::string v = argv[++i];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v.c_str(), nullptr);
    } else if (k == "--trace") {
      a.trace = v == "1";
    } else if (k == "--root") {
      a.root = v;
    } else if (k == "--commit") {
      a.commit = v;
    } else if (k == "--source-digest") {
      a.source_digest = v;
    } else {
      return std::nullopt;
    }
  }
  if (a.workload.empty() || a.seconds <= 0) return std::nullopt;
  return a;
}

// ------------------------------------------------------------- op model

enum Op { kCreate, kStat, kRemove, kWrite, kRead, kOps };
constexpr std::array<const char*, kOps> kOpName = {"create", "stat", "remove",
                                                   "write", "read"};

enum Rpc { kRpcCreate, kRpcStat, kRpcRemoveMd, kRpcWrite, kRpcRead,
           kRpcUpdateSize, kRpcs };
constexpr std::array<const char*, kRpcs> kRpcName = {
    "create", "stat", "remove_metadata", "write_chunks", "read_chunks",
    "update_size"};

/// The RPCs one fs::Mount op issues, in order (fs/mount.cpp,
/// client/client.cpp): unlink stats before it removes, a write sends
/// its size update after the data, a read stats for EOF first.
std::vector<Rpc> rpcs_of(Op op) {
  switch (op) {
    case kCreate: return {kRpcCreate};
    case kStat: return {kRpcStat};
    case kRemove: return {kRpcStat, kRpcRemoveMd};
    case kWrite: return {kRpcWrite, kRpcUpdateSize};
    case kRead: return {kRpcStat, kRpcRead};
    default: return {};
  }
}

/// Backend call serving each RPC, timed by the direct replay.
enum Call { kKvCreate, kKvGet, kKvRemove, kKvUpdateSize, kStWrite, kStRead,
            kCalls };
constexpr std::array<const char*, kCalls> kCallName = {
    "kv.create", "kv.get", "kv.remove", "kv.update_size",
    "storage.write_chunk", "storage.read_chunk"};
constexpr std::array<Call, kRpcs> kCallOf = {kKvCreate, kKvGet, kKvRemove,
                                             kStWrite, kStRead,
                                             kKvUpdateSize};

enum class Entry { mount, engine, backend };

// ----------------------------------------------------------- statistics

/// Sample quantile with linear interpolation between order statistics,
/// so a figure moves with every sample instead of snapping to a bucket.
template <class T>
double quantile(std::vector<T> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double h = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(h);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return static_cast<double>(v[lo]) +
         (h - static_cast<double>(lo)) *
             (static_cast<double>(v[hi]) - static_cast<double>(v[lo]));
}

/// Quantile of a registry histogram, interpolated inside the bucket.
double quantile(const LatencyHistogram& h, double q) {
  if (h.count() == 0) return 0;
  const double rank = q * static_cast<double>(h.count());
  double seen = 0;
  for (std::size_t i = 0; i < LatencyHistogram::kBuckets; ++i) {
    const auto n = static_cast<double>(h.bucket_count(i));
    if (n == 0) continue;
    if (seen + n >= rank) {
      const auto lo = static_cast<double>(LatencyHistogram::lower_bound_of(i));
      const auto hi = static_cast<double>(LatencyHistogram::upper_bound_of(i));
      return lo + (hi - lo) * std::clamp((rank - seen) / n, 0.0, 1.0);
    }
    seen += n;
  }
  return static_cast<double>(
      LatencyHistogram::upper_bound_of(LatencyHistogram::kBuckets - 1));
}

std::uint64_t now_ns() { return metrics::now_ns(); }

// ------------------------------------------------------- layer probes

/// Everything the per-layer metrics diff, captured between phases.
struct Probe {
  std::map<std::string, LatencyHistogram> hist;
  std::map<std::string, std::uint64_t> counters;
  std::vector<kv::DbStats> kv;
  std::vector<storage::ChunkStorageStats> storage;
  std::uint64_t cache_hits = 0, cache_misses = 0;
  double cpu_us = 0;
  std::uint64_t ctx_switches = 0;
};

Probe take_probe(cluster::Cluster& c) {
  Probe p;
  auto& reg = metrics::Registry::global();
  p.hist = reg.histograms_full();
  p.counters = reg.snapshot().counters;
  for (std::uint32_t d = 0; d < c.node_count(); ++d) {
    auto& db = c.daemon(d).metadata().db();
    p.kv.push_back(db.stats());
    p.storage.push_back(c.daemon(d).data().stats());
    if (const auto& cache = db.options().block_cache) {
      p.cache_hits += cache->hits();
      p.cache_misses += cache->misses();
    }
  }
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  auto us = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) * 1e6 + static_cast<double>(t.tv_usec);
  };
  p.cpu_us = us(ru.ru_utime) + us(ru.ru_stime);
  p.ctx_switches = static_cast<std::uint64_t>(ru.ru_nvcsw + ru.ru_nivcsw);
  return p;
}

/// Accumulated difference of probes taken around timed phases.
struct Delta {
  std::map<std::string, LatencyHistogram> hist;
  std::map<std::string, std::uint64_t> counters;
  std::uint64_t flushes = 0, compactions = 0, wal_appends = 0;
  std::uint64_t compact_bytes_out = 0, stall_fg_ms = 0, stall_slow_ms = 0;
  std::uint64_t cache_hits = 0, cache_misses = 0;
  std::uint64_t fd_hits = 0, fd_misses = 0, fd_evictions = 0;
  std::uint64_t storage_bytes_written = 0;
  double cpu_us = 0;
  std::uint64_t ctx_switches = 0;

  void add(const Probe& a, const Probe& b) {
    for (const auto& [name, after] : b.hist) {
      std::array<std::uint64_t, LatencyHistogram::kBuckets> buckets{};
      const auto it = a.hist.find(name);
      for (std::size_t i = 0; i < buckets.size(); ++i) {
        const std::uint64_t before =
            it == a.hist.end() ? 0 : it->second.bucket_count(i);
        buckets[i] = after.bucket_count(i) - before;
      }
      LatencyHistogram diff;
      diff.load(buckets, after.sum() - (it == a.hist.end() ? 0
                                                           : it->second.sum()));
      hist[name].merge(diff);
    }
    for (const auto& [name, after] : b.counters) {
      const auto it = a.counters.find(name);
      counters[name] += after - (it == a.counters.end() ? 0 : it->second);
    }
    for (std::size_t d = 0; d < b.kv.size(); ++d) {
      flushes += b.kv[d].flushes - a.kv[d].flushes;
      compactions += b.kv[d].compactions - a.kv[d].compactions;
      wal_appends += b.kv[d].wal_appends - a.kv[d].wal_appends;
      compact_bytes_out += b.kv[d].compact_bytes_out - a.kv[d].compact_bytes_out;
      stall_fg_ms += b.kv[d].stall_foreground_ms - a.kv[d].stall_foreground_ms;
      stall_slow_ms += b.kv[d].stall_slowdown_ms - a.kv[d].stall_slowdown_ms;
      fd_hits += b.storage[d].fd_cache_hits - a.storage[d].fd_cache_hits;
      fd_misses += b.storage[d].fd_cache_misses - a.storage[d].fd_cache_misses;
      fd_evictions +=
          b.storage[d].fd_cache_evictions - a.storage[d].fd_cache_evictions;
      storage_bytes_written +=
          b.storage[d].bytes_written - a.storage[d].bytes_written;
    }
    cache_hits += b.cache_hits - a.cache_hits;
    cache_misses += b.cache_misses - a.cache_misses;
    cpu_us += b.cpu_us - a.cpu_us;
    ctx_switches += b.ctx_switches - a.ctx_switches;
  }

  [[nodiscard]] std::uint64_t counter(const std::string& name) const {
    const auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second;
  }
  [[nodiscard]] const LatencyHistogram& histogram(
      const std::string& name) const {
    static const LatencyHistogram empty;
    const auto it = hist.find(name);
    return it == hist.end() ? empty : it->second;
  }
};

// --------------------------------------------------------------- phases

/// What one rank recorded during one phase.
struct RankLog {
  std::vector<std::uint64_t> op_ns;
  std::vector<std::uint64_t> end_ns;  // completion time of each op
  std::array<std::vector<std::uint64_t>, kCalls> call_ns;
  std::uint64_t ops = 0;
  std::uint64_t failed = 0;
};

/// Rate and latency quantiles of the ops that completed in one time
/// slice of a timed phase.
struct Slice {
  double ops_s, p50_us, p99_us;
};

/// One op kind across a section: samples, slices and timed seconds.
///
/// The end-to-end figures are the best decile over time slices (an IOR
/// pass, or a twentieth of an mdtest phase): the 90th percentile of the
/// slice rates and the 10th percentile of a slice latency quantile. On
/// a shared host, interference from outside the program (CPU steal, a
/// neighbour's I/O) only ever slows a slice down, so the best slices
/// measure what the stack itself delivers, and a change that slows
/// every op moves them fully. Stalls that hit a minority of slices show
/// in the pooled per-layer p99s instead.
struct PhaseResult {
  std::vector<Slice> slices;
  // Pooled over the whole section in histograms, so memory does not grow
  // with the number of passes a run makes.
  LatencyHistogram op_ns;
  std::array<LatencyHistogram, kCalls> call_ns;
  std::uint64_t ops = 0;
  std::uint64_t failed = 0;   // op errors and oracle mismatches
  std::uint64_t kv_user_bytes = 0;
  std::uint64_t data_bytes = 0;
  std::uint64_t rpcs_sent = 0;  // client.rpcs_sent over the timed phases
  double seconds = 0;

  /// Cuts [start, start + secs) into `k` equal slices; call before
  /// absorb().
  void add_slices(const std::array<RankLog, kRanks>& logs,
                  std::uint64_t start_ns, double secs, int k) {
    std::vector<std::vector<std::uint64_t>> lat(k);
    const double width = secs / k;
    for (const auto& l : logs) {
      for (std::size_t i = 0; i < l.op_ns.size(); ++i) {
        const double at = static_cast<double>(l.end_ns[i] - start_ns) / 1e9;
        lat[std::min(k - 1, static_cast<int>(at / width))].push_back(
            l.op_ns[i]);
      }
    }
    for (auto& v : lat) {
      if (v.empty()) continue;
      slices.push_back({static_cast<double>(v.size()) / width,
                        quantile(v, 0.5) / 1e3,
                        quantile(std::move(v), 0.99) / 1e3});
    }
  }
  [[nodiscard]] double best(double Slice::*field) const {
    std::vector<double> v;
    for (const Slice& sl : slices) v.push_back(sl.*field);
    return quantile(v, field == &Slice::ops_s ? 0.9 : 0.1);
  }

  void absorb(std::array<RankLog, kRanks>& logs) {
    for (auto& l : logs) {
      for (const auto v : l.op_ns) op_ns.add(v);
      for (int c = 0; c < kCalls; ++c) {
        for (const auto v : l.call_ns[c]) call_ns[c].add(v);
      }
      ops += l.ops;
      failed += l.failed;
      l = RankLog{};
    }
  }
  [[nodiscard]] double ops_per_s() const {
    return seconds > 0 ? static_cast<double>(ops) / seconds : 0;
  }
  [[nodiscard]] double p_us(double q) const { return quantile(op_ns, q) / 1e3; }
};

struct Section {
  std::array<PhaseResult, kOps> ops;
  Delta delta;                 // over every timed phase
  int iterations = 0;
  double wall_s = 0;           // timed seconds over all phases
  std::vector<std::uint64_t> create_phase_flushes;      // per daemon, iter 0
  std::vector<std::uint64_t> create_phase_compactions;  // per daemon, iter 0
  std::uint64_t checks_failed = 0;
  [[nodiscard]] std::uint64_t attempted() const {
    std::uint64_t n = 0;
    for (const auto& p : ops) n += p.ops;
    return n;
  }
  [[nodiscard]] std::uint64_t failed() const {
    std::uint64_t n = checks_failed;
    for (const auto& p : ops) n += p.failed;
    return n;
  }
};

struct Timed {
  std::uint64_t start_ns;
  double seconds;
};

/// The rank threads, started once per run. Threads made afresh for every
/// phase would each pick a malloc arena anew, and the peak RSS would
/// wander from run to run with that choice.
class Ranks {
 public:
  Ranks() {
    for (int r = 0; r < kRanks; ++r) threads_.emplace_back([this, r] { loop_(r); });
  }
  ~Ranks() {
    {
      std::lock_guard lock(mutex_);
      stop_ = true;
      ++generation_;
    }
    go_.notify_all();
    for (auto& t : threads_) t.join();
  }
  Ranks(const Ranks&) = delete;
  Ranks& operator=(const Ranks&) = delete;

  /// Runs body(rank) on every rank, released together; returns the
  /// release time and the wall time until the last rank finished.
  Timed run(const std::function<void(int)>& body) {
    std::unique_lock lock(mutex_);
    body_ = &body;
    running_ = kRanks;
    const std::uint64_t start = now_ns();
    ++generation_;
    go_.notify_all();
    done_.wait(lock, [&] { return running_ == 0; });
    return {start, static_cast<double>(now_ns() - start) / 1e9};
  }

 private:
  void loop_(int rank) {
    std::uint64_t seen = 0;
    for (;;) {
      const std::function<void(int)>* body = nullptr;
      {
        std::unique_lock lock(mutex_);
        go_.wait(lock, [&] { return generation_ != seen; });
        seen = generation_;
        if (stop_) return;
        body = body_;
      }
      (*body)(rank);
      std::lock_guard lock(mutex_);
      if (--running_ == 0) done_.notify_one();
    }
  }

  std::mutex mutex_;
  std::condition_variable go_, done_;
  const std::function<void(int)>* body_ = nullptr;
  int running_ = 0;
  std::uint64_t generation_ = 0;
  bool stop_ = false;
  std::vector<std::thread> threads_;  // last: the loops use the above
};

// -------------------------------------------------------------- harness

struct Bench {
  const Workload& w;
  const Args& args;
  std::filesystem::path root;
  std::unique_ptr<cluster::Cluster> cluster;
  std::unique_ptr<fs::Mount> mount;
  std::vector<net::EndpointId> eps;
  std::string token;  // seed-derived path component
  PayloadPool pool;
  struct IorRank {
    std::vector<std::uint64_t> offsets;
    std::vector<std::span<const std::uint8_t>> expected;
    std::vector<std::uint8_t> readbuf;
    std::string path;  // the open section's file
    int fd = -1;
  };
  std::array<IorRank, kRanks> ior;
  std::uint64_t ior_file_size = 0;  // every file's size after a pass
  char ior_tag = 0;  // section whose files are open
  Ranks ranks;

  Bench(const Workload& wl, const Args& a)
      : w(wl), args(a),
        pool(a.seed, w.kind == Kind::ior ? (8u << 20) + w.xfer : 64) {
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(mix64(a.seed)));
    token = buf;
    if (w.kind == Kind::ior) plan_ior();
  }

  client::Client& client() { return mount->client(); }
  net::EndpointId ep(std::uint32_t daemon) const { return eps[daemon]; }

  // ---- setup: boot, mount, pre-populate --------------------------------

  Status boot(const std::filesystem::path& dir) {
    cluster::ClusterOptions opts;
    opts.nodes = kDaemons;
    opts.root = dir;
    opts.transport = w.transport;
    auto c = cluster::Cluster::start(std::move(opts));
    if (!c) return c.status();
    cluster = std::move(*c);
    mount = cluster->mount();
    if (!mount) return Status{Errc::io_error, "mount failed"};
    if (w.transport == cluster::ClusterTransport::loopback) {
      eps = cluster->daemon_endpoints();
    } else {
      eps.clear();  // hosted daemons answer on their hostfile ids
      for (std::uint32_t i = 0; i < kDaemons; ++i) eps.push_back(i);
    }
    return w.kind == Kind::mdtest ? mkdirs(md_base()) : open_ior('m');
  }

  void teardown() {
    mount.reset();
    cluster.reset();
  }

  Status mkdirs(const std::string& path) {
    std::size_t pos = 0;
    while ((pos = path.find('/', pos + 1)) != std::string::npos) {
      const Status st = mount->mkdir(path.substr(0, pos));
      if (!st.is_ok() && st.code() != Errc::exists) return st;
    }
    const Status st = mount->mkdir(path);
    return st.is_ok() || st.code() == Errc::exists ? Status::ok() : st;
  }

  // mdtest's layout under a deep job directory, as HPC scratch paths
  // are: keys of about 136 bytes.
  [[nodiscard]] std::string md_base() const {
    return "/scratch/gkfs/projects/climate-ensemble-0042/campaign-2026q4/run-" +
           token + "/mdtest";
  }
  [[nodiscard]] std::string md_dir(char tag, int iter) const {
    return md_base() + "/test-dir." + tag + std::to_string(iter) +
           "-0/mdtest_tree.0";
  }

  /// One pass of every rank: its transfer offsets in issue order and
  /// their expected payloads. Sections differ only in the file names.
  void plan_ior() {
    Xoshiro256 rng(mix64(args.seed ^ 0x696f72ULL));
    for (int r = 0; r < kRanks; ++r) {
      IorRank& ir = ior[r];
      if (!w.shared) {
        for (std::uint32_t t = 0; t < w.transfers_per_pass; ++t) {
          ir.offsets.push_back(std::uint64_t{t} * w.xfer);
          ir.expected.push_back(pool.window(r, t, w.xfer));
        }
      } else {
        // IOR segmented layout: segment s holds one block per rank; the
        // pass is a seeded random subset of this rank's transfers.
        const std::uint64_t per_rank = w.segments * w.transfers_per_block;
        const std::uint64_t block = std::uint64_t{w.xfer} * w.transfers_per_block;
        std::vector<std::uint64_t> pick(per_rank);
        for (std::uint64_t i = 0; i < per_rank; ++i) pick[i] = i;
        for (std::uint32_t i = 0; i < w.transfers_per_pass; ++i) {
          std::swap(pick[i], pick[i + rng.below(per_rank - i)]);
          const std::uint64_t seg = pick[i] / w.transfers_per_block;
          const std::uint64_t t = pick[i] % w.transfers_per_block;
          const std::uint64_t off =
              (seg * kRanks + static_cast<std::uint64_t>(r)) * block +
              t * w.xfer;
          ir.offsets.push_back(off);
          ir.expected.push_back(pool.window(0, off / w.xfer, w.xfer));
        }
      }
      ir.readbuf.assign(std::size_t{w.transfers_per_pass} * w.xfer, 0);
      for (const std::uint64_t off : ir.offsets) {
        ior_file_size = std::max(ior_file_size, off + w.xfer);
      }
    }
  }

  [[nodiscard]] std::string ior_dir(char tag) const {
    return "/ior/run-" + token + "/" + tag;
  }

  /// Creates one iteration's files and writes one untimed pass, so the
  /// timed write overwrites chunks that exist.
  Status open_ior(char tag) {
    GEKKO_RETURN_IF_ERROR(mkdirs(ior_dir(tag)));
    for (int r = 0; r < kRanks; ++r) {
      IorRank& ir = ior[r];
      char name[32];
      std::snprintf(name, sizeof(name), "/testFile.%08d", w.shared ? 0 : r);
      ir.path = ior_dir(tag) + name;
      const bool first_open = !w.shared || r == 0;
      auto fd = mount->open(ir.path,
                            fs::rd_wr | (first_open ? fs::create : 0u));
      if (!fd) return fd.status();
      ir.fd = *fd;
    }
    std::array<std::uint64_t, kRanks> bad{};
    ranks.run([&](int r) {
      const IorRank& ir = ior[r];
      for (std::size_t j = 0; j < ir.offsets.size(); ++j) {
        auto n = mount->pwrite(ir.fd, ir.expected[j], ir.offsets[j]);
        if (!n || *n != w.xfer) ++bad[r];
      }
    });
    ior_tag = tag;
    for (const auto b : bad) {
      if (b != 0) return Status{Errc::io_error, "pre-population failed"};
    }
    return Status::ok();
  }

  /// Closes and unlinks the section's files, dropping their chunks.
  Status close_ior() {
    Status first = Status::ok();
    for (int r = 0; r < kRanks; ++r) {
      Status st = mount->close(ior[r].fd);
      if (st.is_ok() && (!w.shared || r == 0)) st = mount->unlink(ior[r].path);
      if (first.is_ok()) first = st;
    }
    ior_tag = 0;
    return first;
  }

  /// Boots kSetupReps times (each from an empty data root) and keeps the
  /// last cluster; returns the median set-up time.
  Result<double> setup() {
    std::vector<double> times;
    for (int rep = 0; rep < kSetupReps; ++rep) {
      if (cluster) teardown();
      std::error_code ec;
      std::filesystem::remove_all(root / "cluster", ec);
      ::sync();  // start each set-up with no dirty pages in flight
      const auto t0 = std::chrono::steady_clock::now();
      GEKKO_RETURN_IF_ERROR(boot(root / "cluster"));
      times.push_back(std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count());
    }
    return quantile(std::move(times), 0.5);
  }

  /// Waits (untimed, up to 30 s) until no daemon's kv has a flush or
  /// compaction running or due, so background work a phase started does
  /// not spill into the next phase's timing.
  void settle() {
    for (int i = 0; i < 6000; ++i) {
      bool busy = false;
      for (std::uint32_t d = 0; d < cluster->node_count(); ++d) {
        auto& db = cluster->daemon(d).metadata().db();
        const kv::DbStats st = db.stats();
        busy = busy || st.compactions_running > 0 ||
               st.immutable_memtables > 0 ||
               st.level_files[0] >= static_cast<std::uint64_t>(
                                        db.options().l0_compaction_trigger);
      }
      if (!busy) return;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }

  // ---- mdtest ------------------------------------------------------------

  struct MdIter {
    std::string dir;
    std::array<std::vector<std::string>, kRanks> paths;
    std::array<std::vector<std::uint32_t>, kRanks> stat_order;
  };

  MdIter md_iteration(char tag, int iter) const {
    MdIter it;
    it.dir = md_dir(tag, iter);
    Xoshiro256 rng(mix64(args.seed) ^ mix64(static_cast<std::uint64_t>(iter)));
    for (int r = 0; r < kRanks; ++r) {
      auto& paths = it.paths[r];
      paths.reserve(w.files_per_rank);
      for (std::uint32_t i = 0; i < w.files_per_rank; ++i) {
        paths.push_back(it.dir + "/file.mdtest." + std::to_string(r) + "." +
                        std::to_string(i));
      }
      // Stat in a seeded random order (mdtest -R), so lookups do not
      // walk the memtable / SSTables in insertion order.
      auto& order = it.stat_order[r];
      order.resize(w.files_per_rank);
      for (std::uint32_t i = 0; i < w.files_per_rank; ++i) order[i] = i;
      for (std::uint32_t i = w.files_per_rank; i > 1; --i) {
        std::swap(order[i - 1], order[rng.below(i)]);
      }
    }
    return it;
  }

  /// Names a readdir of `dir` returns, checked against `want`.
  bool listing_is(const std::string& dir, std::vector<std::string> want) {
    auto dirfd = mount->opendir(dir);
    if (!dirfd) return false;
    std::vector<std::string> got;
    for (;;) {
      auto e = mount->readdir(*dirfd);
      if (!e || !*e) break;
      got.push_back((*e)->name);
    }
    (void)mount->closedir(*dirfd);
    return perfbench::same_names(std::move(got), std::move(want));
  }

  void md_phase(Section& s, Op op, Entry entry, const MdIter& it) {
    std::array<RankLog, kRanks> logs;
    // Requests for the engine replay are encoded before timing; checks
    // of stat results happen after it.
    std::array<std::vector<std::vector<std::uint8_t>>, kRanks> reqs;
    std::array<std::vector<std::vector<std::uint8_t>>, kRanks> replies;
    std::array<std::vector<proto::Metadata>, kRanks> mds;
    const auto& dist = client().distributor();
    std::uint64_t kv_bytes = 0;
    const std::size_t md_size = proto::Metadata{}.encode().size();
    for (int r = 0; r < kRanks; ++r) {
      const auto n = it.paths[r].size();
      for (std::size_t i = 0; i < n; ++i) {
        const std::string& p = it.paths[r][op == kStat ? it.stat_order[r][i] : i];
        if (op == kCreate) kv_bytes += p.size() + md_size;
        if (op == kRemove) kv_bytes += p.size();
        if (entry != Entry::engine) continue;
        if (op == kCreate) {
          proto::CreateRequest req;
          req.path = p;
          req.type = static_cast<std::uint8_t>(proto::FileType::regular);
          req.mode = 0644;
          req.ctime_ns = client::now_ns();
          reqs[r].push_back(req.encode());
        } else {
          reqs[r].push_back(proto::PathRequest{p}.encode());
        }
      }
      if (op == kStat) {
        replies[r].reserve(n);
        mds[r].reserve(n);
      }
      logs[r].op_ns.reserve(n);
      logs[r].end_ns.reserve(n);
    }

    settle();
    // Write back the kv's dirty pages too, so kernel writeback does not
    // overlap the phase. (IOR iterations are too many and too short for
    // this, and chunk pwrites issued right after a sync were seen to
    // stall for hundreds of milliseconds.)
    ::sync();
    const Probe before = take_probe(*cluster);
    const Timed timed = ranks.run([&](int r) {
      RankLog& log = logs[r];
      const auto n = it.paths[r].size();
      for (std::size_t i = 0; i < n; ++i) {
        const std::string& p =
            it.paths[r][op == kStat ? it.stat_order[r][i] : i];
        const std::uint32_t owner = dist.metadata_target(p);
        bool ok = true;
        const std::uint64_t t0 = now_ns();
        if (entry == Entry::mount) {
          if (op == kCreate) {
            auto fd = mount->open(p, fs::wr_only | fs::create, 0644);
            ok = fd.is_ok() && mount->close(*fd).is_ok();
          } else if (op == kStat) {
            auto md = mount->stat(p);
            ok = md.is_ok();
            mds[r].push_back(ok ? *md : proto::Metadata{});
          } else {
            ok = mount->unlink(p).is_ok();
          }
        } else if (entry == Entry::engine) {
          auto& eng = client().engine();
          if (op == kCreate) {
            ok = eng.forward(ep(owner), proto::to_wire(proto::RpcId::create),
                             std::move(reqs[r][i]))
                     .is_ok();
          } else if (op == kStat) {
            auto resp = eng.forward(ep(owner),
                                    proto::to_wire(proto::RpcId::stat),
                                    std::move(reqs[r][i]));
            ok = resp.is_ok();
            replies[r].push_back(ok ? std::move(*resp)
                                    : std::vector<std::uint8_t>{});
          } else {
            ok = eng.forward(ep(owner), proto::to_wire(proto::RpcId::stat),
                             reqs[r][i])
                     .is_ok() &&
                 eng.forward(ep(owner),
                             proto::to_wire(proto::RpcId::remove_metadata),
                             std::move(reqs[r][i]))
                     .is_ok();
          }
        } else {
          auto& md = cluster->daemon(owner).metadata();
          if (op == kCreate) {
            proto::Metadata rec;
            rec.type = proto::FileType::regular;
            rec.mode = 0644;
            rec.ctime_ns = rec.mtime_ns = client::now_ns();
            ok = md.create(p, rec).is_ok();
            log.call_ns[kKvCreate].push_back(now_ns() - t0);
          } else if (op == kStat) {
            auto got = md.get(p);
            ok = got.is_ok();
            log.call_ns[kKvGet].push_back(now_ns() - t0);
            mds[r].push_back(ok ? *got : proto::Metadata{});
          } else {
            ok = md.get(p).is_ok();
            const std::uint64_t t1 = now_ns();
            log.call_ns[kKvGet].push_back(t1 - t0);
            ok = md.remove(p).is_ok() && ok;
            log.call_ns[kKvRemove].push_back(now_ns() - t1);
          }
        }
        const std::uint64_t t_end = now_ns();
        log.op_ns.push_back(t_end - t0);
        log.end_ns.push_back(t_end);
        ++log.ops;
        if (!ok) ++log.failed;
      }
    });
    const Probe after = take_probe(*cluster);

    // Oracle: every stat returns a zero-byte regular file.
    if (op == kStat) {
      for (int r = 0; r < kRanks; ++r) {
        if (entry == Entry::engine) {
          for (const auto& bytes : replies[r]) {
            auto resp = proto::StatResponse::decode(std::string_view(
                reinterpret_cast<const char*>(bytes.data()), bytes.size()));
            mds[r].push_back(resp ? resp->metadata : proto::Metadata{});
          }
        }
        for (const auto& md : mds[r]) {
          if (md.type != proto::FileType::regular || md.size != 0) {
            ++logs[r].failed;
          }
        }
      }
    }
    PhaseResult& pr = s.ops[op];
    std::uint64_t n = 0;
    for (const auto& l : logs) n += l.op_ns.size();
    pr.add_slices(logs, timed.start_ns, timed.seconds,
                  static_cast<int>(std::clamp<std::uint64_t>(n / 10000, 1, 20)));
    pr.absorb(logs);
    pr.seconds += timed.seconds;
    pr.kv_user_bytes += kv_bytes;
    pr.rpcs_sent += after.counters.at("client.rpcs_sent") -
                    before.counters.at("client.rpcs_sent");
    s.delta.add(before, after);
    s.wall_s += timed.seconds;
    if (op == kCreate && s.create_phase_flushes.empty()) {
      for (std::size_t d = 0; d < after.kv.size(); ++d) {
        s.create_phase_flushes.push_back(after.kv[d].flushes -
                                         before.kv[d].flushes);
        s.create_phase_compactions.push_back(after.kv[d].compactions -
                                             before.kv[d].compactions);
      }
    }
  }

  /// `iterations` times: create, stat, remove in a fresh directory.
  Section run_mdtest(Entry entry, char tag, int iterations) {
    Section s;
    for (int k = 0; k < iterations; ++k) {
      const MdIter it = md_iteration(tag, k);
      if (!mkdirs(it.dir).is_ok()) ++s.checks_failed;
      std::vector<std::string> names;
      for (int r = 0; r < kRanks; ++r) {
        for (const auto& p : it.paths[r]) {
          names.push_back(p.substr(it.dir.size() + 1));
        }
      }
      md_phase(s, kCreate, entry, it);
      if (!listing_is(it.dir, names)) ++s.checks_failed;
      md_phase(s, kStat, entry, it);
      md_phase(s, kRemove, entry, it);
      if (!listing_is(it.dir, {})) ++s.checks_failed;
      s.iterations = k + 1;
    }
    return s;
  }

  // ---- IOR ---------------------------------------------------------------

  void ior_pass(Section& s, Op op, Entry entry) {
    std::array<RankLog, kRanks> logs;
    // Engine replay: requests encoded before timing, one set per pass.
    std::array<std::vector<std::vector<std::uint8_t>>, kRanks> data_reqs;
    std::array<std::vector<std::vector<std::uint8_t>>, kRanks> meta_reqs;
    const auto& dist = client().distributor();
    const std::uint32_t cs = client().chunk_size();
    for (int r = 0; r < kRanks; ++r) {
      const IorRank& ir = ior[r];
      logs[r].op_ns.reserve(ir.offsets.size());
      logs[r].end_ns.reserve(ir.offsets.size());
      if (entry != Entry::engine) continue;
      for (const std::uint64_t off : ir.offsets) {
        proto::ChunkIoRequest req;
        req.path = ir.path;
        req.slices.push_back(proto::ChunkSlice{
            off / cs, static_cast<std::uint32_t>(off % cs), w.xfer, 0});
        data_reqs[r].push_back(req.encode());
        if (op == kWrite) {
          proto::UpdateSizeRequest u;
          u.path = ir.path;
          u.observed_size = off + w.xfer;
          u.mtime_ns = client::now_ns();
          meta_reqs[r].push_back(u.encode());
        } else {
          meta_reqs[r].push_back(proto::PathRequest{ir.path}.encode());
        }
      }
    }

    settle();
    const Probe before = take_probe(*cluster);
    const Timed timed = ranks.run([&](int r) {
      RankLog& log = logs[r];
      IorRank& ir = ior[r];
      const std::uint32_t owner = dist.metadata_target(ir.path);
      for (std::size_t j = 0; j < ir.offsets.size(); ++j) {
        const std::uint64_t off = ir.offsets[j];
        const std::uint64_t chunk = off / cs;
        const auto in_chunk = static_cast<std::uint32_t>(off % cs);
        const std::span<std::uint8_t> out(ir.readbuf.data() + j * w.xfer,
                                          w.xfer);
        bool ok = true;
        const std::uint64_t t0 = now_ns();
        if (entry == Entry::mount) {
          auto n = op == kWrite ? mount->pwrite(ir.fd, ir.expected[j], off)
                                : mount->pread(ir.fd, out, off);
          ok = n.is_ok() && *n == w.xfer;
        } else if (entry == Entry::engine) {
          auto& eng = client().engine();
          const net::EndpointId data_ep = ep(dist.chunk_target(ir.path, chunk));
          if (op == kWrite) {
            ok = eng.forward(data_ep, proto::to_wire(proto::RpcId::write_chunks),
                             std::move(data_reqs[r][j]),
                             net::BulkRegion::expose_read(ir.expected[j]))
                     .is_ok() &&
                 eng.forward(ep(owner),
                             proto::to_wire(proto::RpcId::update_size),
                             std::move(meta_reqs[r][j]))
                     .is_ok();
          } else {
            ok = eng.forward(ep(owner), proto::to_wire(proto::RpcId::stat),
                             std::move(meta_reqs[r][j]))
                     .is_ok() &&
                 eng.forward(data_ep, proto::to_wire(proto::RpcId::read_chunks),
                             std::move(data_reqs[r][j]),
                             net::BulkRegion::expose_write(out))
                     .is_ok();
          }
        } else {
          auto& data = cluster->daemon(dist.chunk_target(ir.path, chunk)).data();
          auto& md = cluster->daemon(owner).metadata();
          if (op == kWrite) {
            ok = data.write_chunk(ir.path, chunk, in_chunk, ir.expected[j])
                     .is_ok();
            const std::uint64_t t1 = now_ns();
            log.call_ns[kStWrite].push_back(t1 - t0);
            ok = md.update_size(ir.path, off + w.xfer, client::now_ns())
                     .is_ok() &&
                 ok;
            log.call_ns[kKvUpdateSize].push_back(now_ns() - t1);
          } else {
            ok = md.get(ir.path).is_ok();
            const std::uint64_t t1 = now_ns();
            log.call_ns[kKvGet].push_back(t1 - t0);
            auto n = data.read_chunk(ir.path, chunk, in_chunk, out);
            ok = n.is_ok() && *n == w.xfer && ok;
            log.call_ns[kStRead].push_back(now_ns() - t1);
          }
        }
        const std::uint64_t t_end = now_ns();
        log.op_ns.push_back(t_end - t0);
        log.end_ns.push_back(t_end);
        ++log.ops;
        if (!ok) ++log.failed;
      }
    });
    const Probe after = take_probe(*cluster);

    // Oracle: every read equals the seed-generated payload.
    if (op == kRead) {
      ranks.run([&](int r) {
        IorRank& ir = ior[r];
        for (std::size_t j = 0; j < ir.offsets.size(); ++j) {
          const std::span<const std::uint8_t> got(
              ir.readbuf.data() + j * w.xfer, w.xfer);
          if (!perfbench::same_bytes(got, ir.expected[j])) ++logs[r].failed;
        }
        std::fill(ir.readbuf.begin(), ir.readbuf.end(), 0);
      });
    }
    PhaseResult& pr = s.ops[op];
    pr.add_slices(logs, timed.start_ns, timed.seconds, 1);
    pr.absorb(logs);
    pr.seconds += timed.seconds;
    const std::uint64_t bytes =
        std::uint64_t{w.transfers_per_pass} * w.xfer * kRanks;
    pr.data_bytes += bytes;
    if (op == kWrite) {
      // Each write folds one size-update merge operand into the kv.
      pr.kv_user_bytes +=
          std::uint64_t{w.transfers_per_pass} * kRanks *
          (ior[0].path.size() +
           daemon::encode_size_operand(daemon::SizeOp::grow_to, 0, 0).size());
    }
    pr.rpcs_sent += after.counters.at("client.rpcs_sent") -
                    before.counters.at("client.rpcs_sent");
    s.delta.add(before, after);
    s.wall_s += timed.seconds;
  }

  /// IOR -i: every iteration creates the files and pre-populates them
  /// untimed, times one write pass that overwrites that region and one
  /// read pass that rereads it, then unlinks the files. Fresh files keep
  /// what every read's stat folds (one size-update merge per write since
  /// the create) the same in each iteration.
  Section run_ior(Entry entry, char tag, int iterations) {
    Section s;
    for (int k = 0; k < iterations; ++k) {
      if (ior_tag != tag && !open_ior(tag).is_ok()) {
        ++s.checks_failed;
        break;
      }
      ior_pass(s, kWrite, entry);
      // Oracle: every file reports its expected type and size.
      for (int r = 0; r < kRanks; ++r) {
        auto md = mount->stat(ior[r].path);
        if (!md || md->type != proto::FileType::regular ||
            md->size != ior_file_size) {
          ++s.checks_failed;
        }
      }
      ior_pass(s, kRead, entry);
      if (!close_ior().is_ok()) ++s.checks_failed;
      s.iterations = k + 1;
    }
    return s;
  }

  Section run_section(Entry entry, char tag, double budget,
                      const Section* same_as) {
    const int n = same_as ? same_as->iterations
                          : static_cast<int>(std::max(
                                1L, std::lround(budget / w.seconds_per_iteration)));
    return w.kind == Kind::mdtest ? run_mdtest(entry, tag, n)
                                  : run_ior(entry, tag, n);
  }
};

// --------------------------------------------------------------- output

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string fmt(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

std::string fs_type(const std::filesystem::path& p) {
  struct statfs sfs {};
  if (::statfs(p.c_str(), &sfs) != 0) return "unknown";
  switch (static_cast<unsigned long>(sfs.f_type)) {
    case 0xEF53: return "ext2/3/4";
    case 0x58465342: return "xfs";
    case 0x01021994: return "tmpfs";
    case 0x9123683E: return "btrfs";
    case 0x794C7630: return "overlayfs";
    case 0x2FC12FC1: return "zfs";
    case 0x6969: return "nfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%lx",
                    static_cast<unsigned long>(sfs.f_type));
      return buf;
    }
  }
}

const char* transport_name(cluster::ClusterTransport t) {
  switch (t) {
    case cluster::ClusterTransport::loopback: return "loopback";
    case cluster::ClusterTransport::uds: return "uds";
    case cluster::ClusterTransport::tcp: return "tcp";
  }
  return "?";
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

double peak_rss_mib() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// The workload's mutating op (create / write) and its lookup op
/// (stat / read): end-to-end metrics are named by role so that every
/// workload reports all of them.
std::pair<Op, Op> roles(const Workload& w) {
  return w.kind == Kind::mdtest ? std::pair{kCreate, kStat}
                                : std::pair{kWrite, kRead};
}

std::vector<Metric> end_to_end(const Workload& w, const Section& s,
                               double setup_s) {
  const auto [mut, look] = roles(w);
  const PhaseResult& m = s.ops[mut];
  const PhaseResult& l = s.ops[look];
  return {{"setup_s", setup_s, "s"},
          {"peak_rss_mib", peak_rss_mib(), "MiB"},
          {"mutate_ops_s", m.best(&Slice::ops_s), "1/s"},
          {"mutate_p50_us", m.best(&Slice::p50_us), "us"},
          {"lookup_ops_s", l.best(&Slice::ops_s), "1/s"},
          {"lookup_p50_us", l.best(&Slice::p50_us), "us"}};
}

/// The end-to-end figures under the op names of the workload, with the
/// sample and slice counts and the figures pooled over the whole phase
/// (text lines; the JSON carries the role names).
void print_op_lines(const Workload& w, const Section& s) {
  for (int op = 0; op < kOps; ++op) {
    const PhaseResult& p = s.ops[op];
    if (p.ops == 0) continue;

    const char* n = kOpName[op];
    const double ops_s = p.best(&Slice::ops_s);
    std::printf("op %-6s n=%llu slices=%zu %s_ops_s=%.1f", n,
                static_cast<unsigned long long>(p.ops), p.slices.size(), n,
                ops_s);
    if (p.data_bytes > 0) {
      std::printf(" %s_mib_s=%.1f", n, ops_s * w.xfer / (1 << 20));
    }
    std::printf(" %s_p50_us=%.2f %s_p99_us=%.2f | pooled: %.1f ops/s"
                " p50=%.2f p99=%.2f us\n",
                n, p.best(&Slice::p50_us), n,
                p.best(&Slice::p99_us), p.ops_per_s(), p.p_us(0.5),
                p.p_us(0.99));
  }
  if (w.kind == Kind::mdtest && !s.create_phase_flushes.empty()) {
    std::printf("mdtest files per iteration=%u (4 ranks x %u), iterations=%d;"
                " first create phase per daemon: flushes",
                w.files_per_rank * kRanks, w.files_per_rank, s.iterations);
    for (auto f : s.create_phase_flushes) std::printf(" %llu", (unsigned long long)f);
    std::printf(", compactions");
    for (auto c : s.create_phase_compactions) std::printf(" %llu", (unsigned long long)c);
    std::printf("\n");
  }
  if (w.kind == Kind::ior) {
    std::printf("ior transfer=%u B, transfers per rank per pass=%u, "
                "iterations=%d\n",
                w.xfer, w.transfers_per_pass, s.iterations);
  }
}

/// Per-layer metrics from the four sections of a traced run.
std::vector<Metric> per_layer(const Workload& w, const Section& plain,
                              const Section& traced, const Section& engine,
                              const Section& backend) {
  std::vector<Metric> out;
  auto add = [&](std::string name, double v, const char* unit) {
    out.push_back({std::move(name), v, unit});
  };
  // Registry diffs over every phase of the traced fs::Mount section.
  const Delta& all = traced.delta;
  const std::uint64_t ops = traced.attempted();
  const std::uint64_t data_user = traced.ops[kWrite].data_bytes;
  std::uint64_t kv_user = 0;
  for (const PhaseResult& p : traced.ops) kv_user += p.kv_user_bytes;
  auto per_op = [&](double v) { return ops ? v / static_cast<double>(ops) : 0; };
  auto frac = [](double a, double b) { return b > 0 ? a / b : 0; };
  auto hq = [&](const std::string& name, double q) {
    return quantile(all.histogram(name), q) / 1e3;
  };
  auto call_p = [&](Call c, double q) {
    LatencyHistogram h;
    for (const PhaseResult& p : backend.ops) h.merge(p.call_ns[c]);
    return quantile(h, q) / 1e3;
  };

  std::array<double, kOps> client_self{};
  for (int op = 0; op < kOps; ++op) {
    const std::string n = kOpName[op];
    client_self[op] = traced.ops[op].ops
                          ? traced.ops[op].p_us(0.5) - engine.ops[op].p_us(0.5)
                          : 0;
    add("client.self_us." + n, client_self[op], "us");
  }
  for (int op = 0; op < kOps; ++op) {
    const PhaseResult& p = traced.ops[op];
    add(std::string("client.rpcs_per_op.") + kOpName[op],
        frac(static_cast<double>(p.rpcs_sent),
             static_cast<double>(p.ops)),
        "count");
  }
  std::array<double, kRpcs> caller50{}, transit{}, queue50{}, handler50{},
      dself{}, backend50{};
  for (int r = 0; r < kRpcs; ++r) {
    const std::string n = kRpcName[r];
    const std::string caller = "rpc.caller." + n + ".latency";
    const std::string hlat = "rpc.handler." + n + ".latency";
    const std::string hqueue = "rpc.handler." + n + ".queue";
    const double c50 = caller50[r] = hq(caller, 0.5);
    queue50[r] = hq(hqueue, 0.5);
    handler50[r] = hq(hlat, 0.5);
    backend50[r] = call_p(kCallOf[r], 0.5);
    transit[r] = all.histogram(caller).count()
                     ? c50 - queue50[r] - handler50[r]
                     : 0;
    dself[r] = all.histogram(hlat).count() ? handler50[r] - backend50[r] : 0;
    add("rpc.caller_us." + n + ".p50", c50, "us");
    add("rpc.caller_us." + n + ".p99", hq(caller, 0.99), "us");
    add("rpc.handler_queue_us." + n + ".p99", hq(hqueue, 0.99), "us");
    add("rpc.handler_us." + n + ".p50", handler50[r], "us");
    add("rpc.transit_us." + n + ".p50", transit[r], "us");
    add("daemon.self_us." + n, dself[r], "us");
  }
  add("rpc.retries", static_cast<double>(all.counter("rpc.retries")), "count");
  add("rpc.timeouts", static_cast<double>(all.counter("rpc.timeouts")),
      "count");
  const double frames = static_cast<double>(
      all.counter("net.tcp.frames_out") + all.counter("net.loopback.messages"));
  add("net.frames_per_op", per_op(frames), "count");
  add("net.bytes_per_op",
      per_op(static_cast<double>(all.counter("net.tcp.bytes_out") +
                                 all.counter("net.loopback.payload_bytes"))),
      "B");
  add("net.tcp.coalesced_frac",
      frac(static_cast<double>(all.counter("net.tcp.coalesced_frames")),
           static_cast<double>(all.counter("net.tcp.frames_out"))),
      "frac");
  add("net.loopback.bulk_bytes_per_op",
      per_op(static_cast<double>(all.counter("net.loopback.bulk_pulled_bytes") +
                                 all.counter("net.loopback.bulk_pushed_bytes"))),
      "B");
  add("daemon.io.samples",
      static_cast<double>(all.histogram("daemon.io.service").count()), "count");
  add("daemon.io.queue_us.p50", hq("daemon.io.queue", 0.5), "us");
  add("daemon.io.queue_us.p99", hq("daemon.io.queue", 0.99), "us");
  add("daemon.io.service_us.p50", hq("daemon.io.service", 0.5), "us");
  add("daemon.io.service_us.p99", hq("daemon.io.service", 0.99), "us");
  for (const Call c : {kKvCreate, kKvGet, kKvRemove, kKvUpdateSize}) {
    const std::string n = std::string(kCallName[c]).substr(3);
    add("kv.self_us." + n + ".p50", call_p(c, 0.5), "us");
    add("kv.self_us." + n + ".p99", call_p(c, 0.99), "us");
  }
  add("kv.wal_appends_per_op", per_op(static_cast<double>(all.wal_appends)),
      "count");
  add("kv.flushes", static_cast<double>(all.flushes), "count");
  add("kv.compactions", static_cast<double>(all.compactions), "count");
  add("kv.create_phase_flushes_min",
      plain.create_phase_flushes.empty()
          ? 0
          : static_cast<double>(*std::min_element(
                plain.create_phase_flushes.begin(),
                plain.create_phase_flushes.end())),
      "count");
  add("kv.create_phase_compactions_min",
      plain.create_phase_compactions.empty()
          ? 0
          : static_cast<double>(*std::min_element(
                plain.create_phase_compactions.begin(),
                plain.create_phase_compactions.end())),
      "count");
  add("kv.compact_bytes_out_per_user_byte",
      frac(static_cast<double>(all.compact_bytes_out),
           static_cast<double>(kv_user)),
      "frac");
  add("kv.stall_foreground_ms", static_cast<double>(all.stall_fg_ms), "ms");
  add("kv.stall_slowdown_ms", static_cast<double>(all.stall_slow_ms), "ms");
  add("kv.cache_hit_frac",
      frac(static_cast<double>(all.cache_hits),
           static_cast<double>(all.cache_hits + all.cache_misses)),
      "frac");
  for (const Call c : {kStWrite, kStRead}) {
    const std::string n = std::string(kCallName[c]).substr(8);
    add("storage.self_us." + n + ".p50", call_p(c, 0.5), "us");
    add("storage.self_us." + n + ".p99", call_p(c, 0.99), "us");
  }
  add("storage.fd_cache_hit_frac",
      frac(static_cast<double>(all.fd_hits),
           static_cast<double>(all.fd_hits + all.fd_misses)),
      "frac");
  add("storage.fd_cache_evictions", static_cast<double>(all.fd_evictions),
      "count");
  add("storage.bytes_written_per_user_byte",
      frac(static_cast<double>(all.storage_bytes_written),
           static_cast<double>(data_user)),
      "frac");

  // Process cost from the untraced section.
  add("proc.cpu_us_per_op",
      frac(plain.delta.cpu_us, static_cast<double>(plain.attempted())), "us");
  add("proc.ctx_switches_per_op",
      frac(static_cast<double>(plain.delta.ctx_switches),
           static_cast<double>(plain.attempted())),
      "count");

  // Tracing overhead: time per op, traced over untraced.
  const double overhead =
      plain.wall_s > 0 && traced.attempted() > 0
          ? (traced.wall_s / static_cast<double>(traced.attempted())) /
                    (plain.wall_s / static_cast<double>(plain.attempted())) -
                1
          : 0;
  add("trace.overhead_frac", overhead, "frac");
  std::printf("tracing overhead: %+.2f%% time per op (traced %.3f s / %llu ops,"
              " untraced %.3f s / %llu ops)\n",
              overhead * 100, traced.wall_s,
              static_cast<unsigned long long>(traced.attempted()),
              plain.wall_s, static_cast<unsigned long long>(plain.attempted()));

  // Reconciliation: the untraced end-to-end median next to the sum of
  // layer self-times along the op's RPCs. The layers telescope to
  // traced-Mount p50 - Engine p50 + sum of rpc.caller p50s, so the
  // residual splits into the tracing cost (untraced - traced p50) and
  // the Engine's own work outside its rpc.caller span (Engine replay
  // p50 - sum of caller p50s: pending-table, counters, flight table).
  for (int op = 0; op < kOps; ++op) {
    double residual = 0;
    if (plain.ops[op].ops > 0) {
      const double e2e = plain.ops[op].p_us(0.5);
      double t = 0, qsum = 0, d = 0, b = 0, c = 0;
      for (const Rpc r : rpcs_of(static_cast<Op>(op))) {
        t += transit[r];
        qsum += queue50[r];
        d += dself[r];
        b += backend50[r];
        c += caller50[r];
      }
      const double sum = client_self[op] + t + qsum + d + b;
      residual = e2e > 0 ? (e2e - sum) / e2e : 0;
      std::printf("recon %-6s e2e_p50=%.2f us | client=%.2f rpc.transit=%.2f "
                  "rpc.queue=%.2f daemon=%.2f %s=%.2f | sum=%.2f "
                  "residual=%+.1f%% (tracing %+.2f us, engine outside "
                  "rpc.caller %+.2f us)\n",
                  kOpName[op], e2e, client_self[op], t, qsum, d,
                  w.kind == Kind::mdtest ? "kv" : "kv+storage", b, sum,
                  residual * 100, e2e - traced.ops[op].p_us(0.5),
                  engine.ops[op].p_us(0.5) - c);
    }
    add(std::string("recon.residual_frac.") + kOpName[op], residual, "frac");
  }
  // End-to-end figures the untraced section also gives: the p99s (too
  // unsteady run to run for a regression bound), the remove phase, and
  // IOR bandwidth.
  const auto [mut, look] = roles(w);
  add("e2e.mutate_p99_us", plain.ops[mut].best(&Slice::p99_us), "us");
  add("e2e.lookup_p99_us", plain.ops[look].best(&Slice::p99_us),
      "us");
  add("e2e.mutate_p99_pooled_us", plain.ops[mut].p_us(0.99), "us");
  add("e2e.lookup_p99_pooled_us", plain.ops[look].p_us(0.99), "us");
  add("e2e.remove_ops_s", plain.ops[kRemove].best(&Slice::ops_s),
      "1/s");
  add("e2e.remove_p50_us", plain.ops[kRemove].best(&Slice::p50_us),
      "us");
  add("e2e.write_mib_s",
      plain.ops[kWrite].best(&Slice::ops_s) * w.xfer / (1 << 20),
      "MiB/s");
  add("e2e.read_mib_s",
      plain.ops[kRead].best(&Slice::ops_s) * w.xfer / (1 << 20),
      "MiB/s");
  return out;
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("metric %-40s %16s %s\n", m.name.c_str(), fmt(m.value).c_str(),
                m.unit.c_str());
  }
  std::string json = std::string("{\"correct\": ") +
                     (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    json += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
            fmt(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = parse_args(argc, argv);
  if (!args) {
    std::fprintf(stderr,
                 "usage: gkfs_perfbench --workload mdtest_tcp|ior_fpp|"
                 "ior_shared_tcp --seed N --seconds S --trace 0|1 "
                 "[--root DIR] [--tiny] [--commit ID] [--source-digest HEX]\n");
    return 2;
  }
  const Workload w = make_workload(args->workload, args->tiny);
  if (w.name == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args->workload.c_str());
    return 2;
  }

  Bench bench(w, *args);
  bench.root = args->root / (std::string(w.name) + "." +
                             std::to_string(::getpid()));
  std::error_code ec;
  std::filesystem::create_directories(bench.root, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s\n", bench.root.c_str());
    return 2;
  }
  std::printf("fingerprint {\"workload\": \"%s\", \"seed\": %llu, "
              "\"seconds\": %s, \"trace\": %d, \"tiny\": %s, \"nproc\": %u, "
              "\"ranks\": %d, \"daemons\": %u, \"transport\": \"%s\", "
              "\"compiler\": \"%s\", \"build_type\": \"%s\", "
              "\"data_fs\": \"%s\", \"commit\": \"%s\", "
              "\"source_digest\": \"%s\"}\n",
              w.name, static_cast<unsigned long long>(args->seed),
              fmt(args->seconds).c_str(), args->trace ? 1 : 0,
              args->tiny ? "true" : "false",
              std::thread::hardware_concurrency(), kRanks, kDaemons,
              transport_name(w.transport), compiler().c_str(),
              PERFBENCH_BUILD_TYPE, fs_type(bench.root).c_str(),
              args->commit.c_str(), args->source_digest.c_str());

  int rc = 0;
  {
    auto setup = bench.setup();
    if (!setup) {
      std::fprintf(stderr, "setup failed: %s\n",
                   setup.status().to_string().c_str());
      rc = 1;
    } else {
      std::vector<Metric> metrics;
      std::uint64_t attempted = 0, failed = 0;
      // A traced run measures four sections; each Mount section gets half
      // the budget so the run stays within a few times --seconds.
      const double budget = args->trace ? args->seconds / 2 : args->seconds;
      const Section plain =
          bench.run_section(Entry::mount, 'm', budget, nullptr);
      attempted += plain.attempted();
      failed += plain.failed();
      print_op_lines(w, plain);
      if (!args->trace) {
        metrics = end_to_end(w, plain, *setup);
      } else {
        const Section traced =
            bench.run_section(Entry::mount, 't', budget, nullptr);
        const Section engine =
            bench.run_section(Entry::engine, 'e', budget, &traced);
        const Section backend =
            bench.run_section(Entry::backend, 'b', budget, &traced);
        for (const Section* s : {&traced, &engine, &backend}) {
          attempted += s->attempted();
          failed += s->failed();
        }
        metrics = per_layer(w, plain, traced, engine, backend);
      }
      bench.teardown();
      const bool correct = failed == 0;
      print_result(correct, attempted, failed, metrics);
      if (!correct) rc = 1;
    }
  }
  bench.teardown();
  std::filesystem::remove_all(bench.root, ec);
  return rc;
}

// gekko::metrics — process-wide observability substrate.
//
// Counters, gauges, and latency histograms behind a named Registry,
// plus a lock-free ring-buffer Tracer for per-RPC span capture. The
// record path is the hot path of every layer (client forwarders,
// fabric delivery and handler threads, daemon service handlers, storage
// and KV internals), so it takes NO lock:
//  - Counter: cache-line-sharded relaxed atomics (threads hash to a
//    shard; value() sums),
//  - Gauge: one relaxed atomic int64,
//  - Histogram: the LatencyHistogram bucket scheme with atomic bucket
//    counters (power-of-two buckets, 16 linear sub-buckets),
//  - Tracer: slots are atomic fields claimed by a fetch_add cursor.
// Registration (Registry::counter("layer.op.metric") etc.) takes a
// mutex but happens once per name; callers cache the reference.
//
// Metric naming scheme: `layer.op.metric`, e.g. `rpc.caller.stat.sent`,
// `daemon.write_chunks.latency`, `kv.compactions`, `net.uds.bytes_out`.
//
// snapshot() walks the registry under its mutex while recorders keep
// going (relaxed reads may be a few events stale — fine for telemetry)
// and serializes to a small JSON subset that Snapshot::from_json()
// parses back (gkfs-top, tests).
// relaxed-ok: counters, gauges, histogram buckets, and tracer slots
// are independent monotonic telemetry scalars; readers tolerate a few
// stale events and no non-atomic data is published through them (the
// tracer's seq field, the one real publication, uses release/acquire).
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/stats.h"
#include "common/thread_annotations.h"

namespace gekko::metrics {

/// Monotonic nanoseconds (steady clock) for latency measurement.
inline std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Monotonically increasing event counter, sharded across cache lines
/// so concurrent recorders never contend on one line.
class Counter {
 public:
  static constexpr std::size_t kShards = 8;

  void inc(std::uint64_t n = 1) noexcept {
    shards_[shard_index_()].v.fetch_add(n, std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint64_t value() const noexcept {
    std::uint64_t total = 0;
    for (const auto& s : shards_) {
      total += s.v.load(std::memory_order_relaxed);
    }
    return total;
  }

 private:
  struct alignas(64) Shard {
    std::atomic<std::uint64_t> v{0};
  };

  static std::size_t shard_index_() noexcept {
    static std::atomic<std::size_t> next{0};
    thread_local const std::size_t idx =
        next.fetch_add(1, std::memory_order_relaxed);
    return idx % kShards;
  }

  std::array<Shard, kShards> shards_{};
};

/// Point-in-time signed value (in-flight ops, republished absolutes).
class Gauge {
 public:
  void add(std::int64_t d) noexcept {
    v_.fetch_add(d, std::memory_order_relaxed);
  }
  void sub(std::int64_t d) noexcept {
    v_.fetch_sub(d, std::memory_order_relaxed);
  }
  void set(std::int64_t v) noexcept {
    v_.store(v, std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> v_{0};
};

/// Concurrent latency histogram: LatencyHistogram's log2+linear bucket
/// layout with atomic bucket counters. record() is wait-free.
class Histogram {
 public:
  static constexpr std::size_t kBuckets = LatencyHistogram::kBuckets;

  void record(std::uint64_t v) noexcept {
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
    buckets_[LatencyHistogram::index_of(v)].fetch_add(
        1, std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t sum() const noexcept {
    return sum_.load(std::memory_order_relaxed);
  }

  /// Copy the atomic buckets into a plain LatencyHistogram (for
  /// quantiles and merging). Concurrent recording keeps going; the
  /// copy is a consistent-enough telemetry view, not a barrier.
  [[nodiscard]] LatencyHistogram materialize() const noexcept {
    std::array<std::uint64_t, kBuckets> buckets;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      buckets[i] = buckets_[i].load(std::memory_order_relaxed);
    }
    LatencyHistogram h;
    h.load(buckets, sum_.load(std::memory_order_relaxed));
    return h;
  }

 private:
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
};

/// Precomputed histogram digest carried in snapshots (quantiles cannot
/// be aggregated after the fact, so they are computed at capture time).
struct HistogramStats {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t p50 = 0;
  std::uint64_t p90 = 0;
  std::uint64_t p99 = 0;
  std::uint64_t max = 0;

  [[nodiscard]] double mean() const noexcept {
    return count ? static_cast<double>(sum) / static_cast<double>(count)
                 : 0.0;
  }
};

/// Point-in-time view of a Registry, serializable to/from JSON. The
/// JSON shape is the wire format of the daemon_stat telemetry RPC:
/// {"node_id":N,"captured_ns":T,"counters":{...},"gauges":{...},
///  "histograms":{"name":{"count":..,"sum":..,"p50":..,"p90":..,
///                        "p99":..,"max":..}}}
/// node_id + captured_ns make offline merges of snapshots from many
/// daemons unambiguous (which node, and in what order on that node's
/// monotonic clock). The parser accepts their absence (pre-stamp JSON).
struct Snapshot {
  /// 0xffffffff = not stamped (the daemon stamps its endpoint id).
  std::uint32_t node_id = 0xffffffffu;
  /// Monotonic (steady-clock) ns at capture on the producing node.
  std::uint64_t captured_ns = 0;
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, std::int64_t> gauges;
  std::map<std::string, HistogramStats> histograms;

  [[nodiscard]] std::string to_json() const;
  static Result<Snapshot> from_json(std::string_view json);

  [[nodiscard]] std::uint64_t counter_or(std::string_view name,
                                         std::uint64_t fallback = 0) const {
    auto it = counters.find(std::string(name));
    return it == counters.end() ? fallback : it->second;
  }
  [[nodiscard]] std::int64_t gauge_or(std::string_view name,
                                      std::int64_t fallback = 0) const {
    auto it = gauges.find(std::string(name));
    return it == gauges.end() ? fallback : it->second;
  }
};

/// Named metric owner. Lookup interns the name under a mutex (cold:
/// once per call site); the returned reference is stable for the
/// Registry's lifetime, so hot paths cache it and record lock-free.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  [[nodiscard]] Snapshot snapshot() const;

  /// Full bucket-resolution copy of every histogram. Snapshot carries
  /// only quantile digests; Prometheus exposition needs the cumulative
  /// buckets themselves (prometheus.h renders them as `_bucket`
  /// series).
  [[nodiscard]] std::map<std::string, LatencyHistogram>
  histograms_full() const;

  /// Process-wide default registry (daemons, tools, benches).
  static Registry& global();

 private:
  /// Guards only the name-interning maps; the metric objects behind
  /// the unique_ptrs are lock-free and accessed without it.
  mutable Mutex mutex_{"metrics.registry", lockdep::rank::kMetricsRegistry};
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_
      GEKKO_GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_
      GEKKO_GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_
      GEKKO_GUARDED_BY(mutex_);
};

/// One captured span of a traced request. `name` must point at a
/// string literal (or other static-storage string): the tracer stores
/// the pointer, not a copy, to keep record() allocation-free (enforced
/// by gekko-lint's span-name rule).
///
/// span_id/parent_span_id make spans causal: a child's parent_span_id
/// names the span that caused it, possibly on another node (the RPC
/// engine ships the caller's span id in net::Message::parent_span).
/// 0 = no parent (a root span). See trace.h for the assembly layer.
struct TraceSpan {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_span_id = 0;
  /// Stamped by Tracer::dump() from the tracer's node id.
  std::uint32_t node_id = 0xffffffffu;
  const char* name = "";
  std::uint16_t rpc_id = 0;
  /// Retry generation of the caller span (0 = first try).
  std::uint32_t attempt = 0;
  /// Compact recording-thread id (log::thread_number()).
  std::uint32_t thread = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t duration_ns = 0;
};

/// Fixed-capacity ring buffer of spans, dumpable on demand. record()
/// claims a slot with one fetch_add and writes atomic fields — no
/// lock, safe from any thread. A dump that races an in-progress
/// overwrite may observe a mixed span (telemetry, not a ledger);
/// unclaimed slots are skipped.
class Tracer {
 public:
  /// Capacity is rounded up to a power of two (minimum 8).
  explicit Tracer(std::size_t capacity = 4096);

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// `name` first so the literal-name contract is mechanically
  /// checkable at every call site. The recording thread id is stamped
  /// here; the node id at dump() (one per tracer, not per span).
  void record(const char* name, std::uint64_t trace_id, std::uint64_t span_id,
              std::uint64_t parent_span_id, std::uint16_t rpc_id,
              std::uint32_t attempt, std::uint64_t start_ns,
              std::uint64_t duration_ns) noexcept;

  /// Spans currently resident, oldest first. At most capacity() spans:
  /// once the ring wraps, the oldest are overwritten.
  [[nodiscard]] std::vector<TraceSpan> dump() const;

  /// Total spans ever recorded (including overwritten ones).
  [[nodiscard]] std::uint64_t recorded() const noexcept {
    return cursor_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t capacity() const noexcept { return slots_.size(); }

  /// Node identity stamped on dumped spans (0xffffffff = unset). The
  /// engine assigns its fabric endpoint id at construction; first
  /// assignment wins so a client process keeps its primary endpoint.
  void set_node_id(std::uint32_t id) noexcept {
    node_id_.store(id, std::memory_order_relaxed);
  }
  void set_node_id_if_unset(std::uint32_t id) noexcept {
    std::uint32_t unset = 0xffffffffu;
    node_id_.compare_exchange_strong(unset, id, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint32_t node_id() const noexcept {
    return node_id_.load(std::memory_order_relaxed);
  }

  static Tracer& global();

 private:
  struct Slot {
    /// 0 = never written; else 1 + logical index of the producing
    /// record() call (monotonic, so dump() can order slots).
    std::atomic<std::uint64_t> seq{0};
    std::atomic<std::uint64_t> trace_id{0};
    std::atomic<std::uint64_t> span_id{0};
    std::atomic<std::uint64_t> parent_span_id{0};
    std::atomic<const char*> name{""};
    std::atomic<std::uint32_t> rpc_id{0};
    std::atomic<std::uint32_t> attempt{0};
    std::atomic<std::uint32_t> thread{0};
    std::atomic<std::uint64_t> start_ns{0};
    std::atomic<std::uint64_t> duration_ns{0};
  };

  std::vector<Slot> slots_;
  std::size_t mask_;
  std::atomic<std::uint64_t> cursor_{0};
  std::atomic<std::uint32_t> node_id_{0xffffffffu};
};

}  // namespace gekko::metrics

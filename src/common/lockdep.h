// Runtime lock-order validator (Linux lockdep, scaled to this repo).
//
// Every gekko::Mutex/SharedMutex (thread_annotations.h) may carry a
// NAME and a RANK. Ranks define the global acquisition order: while a
// thread holds a ranked lock, it may only acquire locks of STRICTLY
// GREATER rank. Violations abort the process with the offending
// thread's full acquisition sequence — turning a potential deadlock
// that strikes once a month at 512 nodes into a deterministic failure
// in the first test that exercises the path.
//
// Three checks run on every instrumented acquisition:
//  1. re-entrancy: acquiring a mutex already held by this thread
//     (std::mutex deadlocks or UBs on this; we abort with the stack);
//  2. rank order: acquiring rank r while holding any rank >= r;
//  3. observed-order inversion: the first time lock B is taken while A
//     is held, the edge A->B (with the thread's acquisition sequence)
//     is recorded; a later acquisition of A while B is held aborts and
//     prints BOTH sequences — the current one and the recorded one
//     that established the opposite order.
//
// Cost model: one relaxed atomic load when disabled (the default in
// release runs); thread-local vector ops plus one global map lookup
// per NAMED acquisition when enabled. Enable with GEKKO_LOCKDEP=1 in
// the environment or lockdep::set_enabled(true) (tests do the latter).
//
// The canonical rank table lives in lockdep::rank below and is
// documented in DESIGN.md §11. Anonymous (default-constructed) mutexes
// only get the re-entrancy check.
#pragma once

#include <string>
#include <vector>

namespace gekko::lockdep {

inline constexpr int kNoRank = -1;

/// Global lock ranks, outermost (acquired first) to innermost. Gaps
/// leave room for future locks without renumbering. A lock may only be
/// acquired while every held rank is strictly smaller.
namespace rank {
// -- application / client layer (outermost) --
inline constexpr int kFsAdapter = 100;      // workload FsAdapter handles
inline constexpr int kFileMap = 120;        // client file map
inline constexpr int kStatCache = 130;      // client stat cache
inline constexpr int kSizeCache = 135;      // client size-update cache
inline constexpr int kClientStats = 140;    // client op counters
inline constexpr int kClientBatcher = 150;  // metadata-RPC coalescing queues
                                            // (flushes forward with it
                                            // DROPPED — rpc ranks are higher)
// -- rpc engine --
inline constexpr int kEngineRpcTable = 200; // handler registration table
inline constexpr int kEngineMetrics = 210;  // caller-metrics slot fill
inline constexpr int kEnginePending = 220;  // in-flight forward map
inline constexpr int kHeartbeat = 250;      // heartbeat monitor lifecycle
                                            // (probes run with it DROPPED)
// -- fabric / transport --
inline constexpr int kFabricInjector = 300; // fault-injector slot
inline constexpr int kLoopback = 310;       // loopback inbox table
inline constexpr int kStreamConn = 322;     // stream fabric routing maps
inline constexpr int kStreamLoop = 326;     // event-loop conn registry
                                            // (acquired under kStreamConn
                                            // when a dial adopts the conn)
inline constexpr int kStreamReply = 332;    // pending reply routes
inline constexpr int kStreamBulk = 342;     // pending writable regions
inline constexpr int kStreamOut = 352;      // per-connection send queue
inline constexpr int kStreamStats = 362;    // traffic counters
inline constexpr int kHttpExporter = 366;   // /metrics http listener state
inline constexpr int kBulkDirty = 370;      // BulkRegion dirty ranges
// -- baseline --
inline constexpr int kPfsMds = 400;         // baseline PFS namespace
// -- storage / kv --
inline constexpr int kKvDb = 500;           // DB-wide LSM lock
inline constexpr int kKvCacheShard = 510;   // block-cache shard (under kKvDb)
inline constexpr int kFdCacheShard = 520;   // chunk fd-cache shard
// -- leaf synchronization primitives --
inline constexpr int kInbox = 790;          // fabric inbox delivery count
                                            // (held only around the count,
                                            // never across the call into
                                            // the engine)
inline constexpr int kQueue = 800;          // BlockingQueue
inline constexpr int kEventual = 810;       // Eventual one-shot cells
inline constexpr int kLatch = 820;          // fan-out latches
// preload.alias looks like an application-layer lock but is entered
// through libc interposition from ARBITRARY call stacks — including
// daemon internals already holding kv.db (the LSM does file I/O, the
// shim sees it). It guards only a map lookup and acquires nothing
// inside, so it must rank as a leaf. Lockdep caught the original
// rank-110 placement aborting under preload_test.
inline constexpr int kPreloadAlias = 830;   // preload fd-alias table (leaf)
inline constexpr int kHealth = 860;         // health tracker state machine
                                            // (logs + bumps cached metrics
                                            // under it; acquires kLog only)
inline constexpr int kMetricsSampler = 870; // sampler stop/tick state
inline constexpr int kMetricsHistory = 880; // per-family sample rings
inline constexpr int kMetricsRegistry = 900;// metric name interning
inline constexpr int kLog = 950;            // log line emission (leaf)
}  // namespace rank

/// Cheap global switch; defaults to the GEKKO_LOCKDEP environment
/// variable ("1"/"true"), read once on first check.
[[nodiscard]] bool enabled() noexcept;
void set_enabled(bool on) noexcept;

/// Called by the mutex wrappers BEFORE blocking on the underlying
/// lock, so an ordering violation is reported instead of deadlocking.
void on_acquire(const void* m, const char* name, int rank);
/// `true` result of a try_lock: the lock is held, record it (ordering
/// is not checked — try_lock cannot deadlock).
void on_try_acquire(const void* m, const char* name, int rank);
void on_release(const void* m) noexcept;

/// Registered rank for `name`; kNoRank if never seen. Registration is
/// keyed by name (many instances share one name, e.g. cache shards)
/// and validated: re-registering a name with a DIFFERENT rank aborts.
[[nodiscard]] int rank_of(const std::string& name);

/// Names currently held by the calling thread, outermost first (tests).
[[nodiscard]] std::vector<std::string> held_names();

/// Async-signal-safe: write EVERY thread's current held-lock stack to
/// `fd` as "lock t<thread> <name> rank=<rank>" lines (the postmortem
/// [locks] section). Reads other threads' stacks without their
/// cooperation — a stack mutating concurrently may yield one torn or
/// stale line, which crash forensics accepts. Only meaningful when
/// lockdep is enabled (stacks are only maintained then).
void crash_dump(int fd) noexcept;

/// Drop recorded edges + name registry (tests only; not thread-safe
/// against concurrent instrumented acquisitions).
void reset_for_test();

}  // namespace gekko::lockdep

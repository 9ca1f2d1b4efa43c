// gekko::flight — the always-on black box (flight recorder).
//
// Every thread that records gets its own lock-free ring of fixed
// 32-byte binary event records; recording is four relaxed atomic
// stores plus one release store of the ring cursor, cheap enough to
// leave on in production (GEKKO_FLIGHT=0 turns it off). Unlike the
// span Tracer — which exists to MEASURE and needs an active trace —
// the flight recorder exists to EXPLAIN a crash: it captures the last
// few hundred protocol-level events per thread (engine dispatch/retry/
// timeout, fabric connect/evict/redial/kill, daemon io slices, kv
// flush/compaction/WAL, client op entries) whether or not tracing is
// sampled on, and stays readable from a fatal-signal handler.
//
// Record layout (32 bytes, mirrored on the wire by FlightDumpResponse
// and in the postmortem text format):
//   w0: monotonic ns            w1: trace id (0 = untraced)
//   w2: arg a0 (u64)            w3: a1(u32) | subsys(u8) | code(u8)
// The recording thread's compact id lives in the ring header, not the
// record. Wrap accounting matches metrics::Tracer: cursor counts every
// record ever written; recorded > capacity ⇒ oldest were overwritten.
//
// Cross-thread reads (snapshot(), the crash writers) are deliberately
// racy: a reader may observe one torn record at the wrap point. That
// is the same telemetry contract the Tracer documents, and the price
// of a record path with no synchronization beyond the cursor.
//
// The module also owns two crash-oriented side tables:
//  - the process-wide in-flight RPC table (inflight_begin/end), a
//    fixed slot array the signal handler can walk where the engine's
//    mutex-guarded pending map cannot be touched;
//  - the postmortem text codec: crash.cpp writes it with the
//    async-signal-safe sfmt helpers below, parse_postmortem() reads
//    it back for gkfs-debug, tests, and the flight fuzz family.
// relaxed-ok: ring slots and cursors are single-writer telemetry
// scalars; the only cross-thread publication (cursor) uses
// release/acquire, and readers tolerate torn records by contract.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"

namespace gekko::flight {

// ---------- event vocabulary ----------

enum class Subsys : std::uint8_t {
  none = 0,
  engine = 1,  // rpc engine
  fabric = 2,  // transport lifecycle
  daemon = 3,  // daemon io path
  kv = 4,      // LSM internals
  client = 5,  // client op entry
};

/// Event codes, scoped per subsystem (the pair (subsys, code) names an
/// event; event_name() renders it).
namespace ev {
// Subsys::engine
inline constexpr std::uint8_t engine_dispatch = 1;  // a0=seq, a1=rpc_id
inline constexpr std::uint8_t engine_retry = 2;     // a0=attempt, a1=rpc_id
inline constexpr std::uint8_t engine_timeout = 3;   // a0=seq, a1=rpc_id
// Subsys::fabric
inline constexpr std::uint8_t fabric_connect = 1;  // a0=dest
inline constexpr std::uint8_t fabric_evict = 2;    // a0=dest
inline constexpr std::uint8_t fabric_redial = 3;   // a0=dest
inline constexpr std::uint8_t fabric_kill = 4;     // a0=dest, a1=seq(lo32)
// Subsys::daemon
inline constexpr std::uint8_t daemon_io_begin = 1;  // a0=chunk, a1=len
inline constexpr std::uint8_t daemon_io_end = 2;    // a0=chunk, a1=len
// Subsys::kv
inline constexpr std::uint8_t kv_flush = 1;        // a0=memtable bytes
inline constexpr std::uint8_t kv_compaction = 2;   // a0=level
inline constexpr std::uint8_t kv_wal_append = 3;   // a0=record bytes
inline constexpr std::uint8_t kv_wal_recover = 4;  // a0=records recovered
// Subsys::client
inline constexpr std::uint8_t client_op = 1;  // a0=tag(op name)
}  // namespace ev

/// Static names for the pair above ("engine", "dispatch", ...).
/// Unknown values render as "?" — decoders must not reject them (a
/// newer node's dump may carry codes this build does not know).
[[nodiscard]] const char* subsys_name(std::uint8_t subsys) noexcept;
[[nodiscard]] const char* event_name(std::uint8_t subsys,
                                     std::uint8_t code) noexcept;

/// Pack the first ≤8 bytes of a NUL-terminated string into a u64
/// (little-endian) so an event arg can carry a short ASCII tag — the
/// client op entry records tag("write") and gkfs-debug prints it back.
[[nodiscard]] std::uint64_t tag(const char* s) noexcept;
/// Inverse of tag(): writes up to 8 chars + NUL; non-printable bytes
/// become '.' so hostile dumps cannot smuggle terminal escapes.
void untag(std::uint64_t packed, char out[9]) noexcept;

// ---------- recording ----------

/// Global switch; defaults to the GEKKO_FLIGHT environment variable
/// (unset/"1"/"true" = on, "0"/"false" = off), read once.
[[nodiscard]] bool enabled() noexcept;
void set_enabled(bool on) noexcept;

/// Record one event in the calling thread's ring, tagging it with the
/// thread's current trace id (trace::current()). ~20ns when enabled,
/// one relaxed load when not.
void record(Subsys subsys, std::uint8_t code, std::uint64_t a0 = 0,
            std::uint32_t a1 = 0) noexcept;
/// Same, with an explicit trace id (delivering fabric threads handle
/// messages for OTHER traces and must not consult their own context).
void record_traced(Subsys subsys, std::uint8_t code, std::uint64_t trace_id,
                   std::uint64_t a0 = 0, std::uint32_t a1 = 0) noexcept;

// ---------- dumping (normal context) ----------

/// One decoded record (exactly the 32-byte wire layout, unpacked).
struct Event {
  std::uint64_t ts_ns = 0;
  std::uint64_t trace_id = 0;
  std::uint64_t a0 = 0;
  std::uint32_t a1 = 0;
  std::uint16_t thread = 0;
  std::uint8_t subsys = 0;
  std::uint8_t code = 0;

  bool operator==(const Event&) const = default;
};

struct RingStats {
  std::uint64_t recorded = 0;  // total events ever, across all rings
  std::uint64_t capacity = 0;  // sum of ring capacities
};

/// All rings' resident events merged and sorted by timestamp (racy
/// reads; see the header comment). Empty slots are skipped.
[[nodiscard]] std::vector<Event> snapshot(RingStats* stats = nullptr);

// ---------- in-flight RPC table ----------

struct InflightEntry {
  std::uint64_t seq = 0;
  std::uint64_t trace_id = 0;
  std::uint64_t start_ns = 0;
  std::uint32_t dest = 0;
  std::uint16_t rpc_id = 0;
};

/// Register/clear a forward in the fixed crash-visible slot table
/// (seq-indexed; a collision with an older still-pending call simply
/// skips registration — forensics, not accounting). Lock-free.
void inflight_begin(std::uint64_t seq, std::uint16_t rpc_id,
                    std::uint32_t dest, std::uint64_t trace_id) noexcept;
void inflight_end(std::uint64_t seq) noexcept;
[[nodiscard]] std::vector<InflightEntry> inflight_snapshot();

// ---------- async-signal-safe writers ----------
// Callable from a fatal-signal handler: write()-only, no allocation,
// no locks, no libc formatting. Also used by the SIGUSR2 live dump.

/// "ev <ts> t<thread> <subsys>.<event> trace=<hex> a0=<hex> a1=<dec>"
/// lines, up to `last_n` newest per ring.
void crash_dump_events(int fd, std::size_t last_n) noexcept;
/// "rpc seq=<dec> id=<dec> dest=<dec> trace=<hex> start_ns=<dec>".
void crash_dump_inflight(int fd) noexcept;

/// Minimal async-signal-safe formatting, shared with crash.cpp (which
/// gekko-lint holds to a no-unsafe-calls rule).
namespace sfmt {
/// Decimal/hex into `buf` (≥21 bytes); returns length, no NUL needed.
std::size_t dec(char* buf, std::uint64_t v) noexcept;
std::size_t hex(char* buf, std::uint64_t v) noexcept;
/// Loop write(2) until done or hard error (EINTR retried).
void write_all(int fd, const char* data, std::size_t n) noexcept;
void write_str(int fd, const char* s) noexcept;
void write_dec(int fd, std::uint64_t v) noexcept;
void write_hex(int fd, std::uint64_t v) noexcept;
}  // namespace sfmt

// ---------- postmortem text format ----------

/// Parsed postmortem report (see DESIGN.md §17 for the format). The
/// writer side lives in crash.cpp; this parser backs gkfs-debug, the
/// death tests, and the `flight` fuzz family — it must survive
/// arbitrary bytes (truncated reports from a crash-during-crash are
/// expected inputs, flagged via `complete`).
struct Postmortem {
  int signal = 0;              // 0 = live report (SIGUSR2 / exit dump)
  std::string signal_name;
  std::uint32_t node_id = 0;
  std::uint64_t pid = 0;
  std::uint64_t capture_ns = 0;
  std::string build;
  std::vector<std::string> backtrace;  // raw backtrace_symbols_fd lines
  struct HeldLock {
    std::uint32_t thread = 0;
    std::string name;
    int rank = -1;
  };
  std::vector<HeldLock> locks;
  std::vector<InflightEntry> inflight;
  std::vector<Event> events;
  std::string metrics_json;
  std::vector<std::string> log_tail;
  bool complete = false;  // END marker present
};

/// Parse a postmortem report. Only the magic line is required; every
/// section is optional (truncation-tolerant). Rejects (corruption)
/// input that does not start with the magic.
[[nodiscard]] Result<Postmortem> parse_postmortem(std::string_view text);

/// Re-render a parsed report in the canonical on-disk format (the
/// fuzz family asserts parse→render→parse is a fixed point on the
/// structured sections).
[[nodiscard]] std::string render_postmortem(const Postmortem& pm);

}  // namespace gekko::flight

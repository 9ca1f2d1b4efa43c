// The LSM key-value store facade (RocksDB stand-in).
//
// One DB instance backs one GekkoFS daemon's metadata. Guarantees:
//  - atomic WriteBatch commits through a WAL,
//  - strongly consistent point reads (read-your-writes),
//  - snapshot-isolated scans,
//  - merge operators for contention-free size updates, with each key's
//    operand chain bounded (kMaxSuccessiveMerges) so reads stay cheap,
//  - leveled compaction on a pool of background workers that do their
//    file I/O with the DB lock RELEASED, so the foreground write path
//    only stalls when the whole pipeline (immutable memtables + L0) is
//    saturated. Stall accounting distinguishes soft slowdowns (writers
//    briefly sleep to let compaction catch up) from hard stops (writer
//    blocked on done_cv_): kv.stall.foreground_ms == 0 is the
//    "stall-free" gate in bench/metadata_scale.
// relaxed-ok: the per-op counters (puts/gets/deletes/merges/folds) and the
// slowdown flag/counters are standalone tallies read/written outside
// mutex_ on purpose (the get/put hot path must not re-take the DB lock
// just to count); stats() folds them into the locked snapshot.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <filesystem>
#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/thread_annotations.h"
#include "kv/iterator.h"
#include "kv/memtable.h"
#include "kv/options.h"
#include "kv/version.h"
#include "kv/wal.h"
#include "kv/write_batch.h"

namespace gekko::kv {

/// RocksDB's max_successive_merges. A merge that would stack the K-th
/// operand on its key's base instead folds the chain under the write
/// lock and stores the result as an ordinary value, so a read folds at
/// most K - 1 operands. Chosen from traced shared-file IOR runs
/// (DESIGN.md §15.4).
inline constexpr std::size_t kMaxSuccessiveMerges = 8;

/// Condition on a key's current value (merge operands folded) for
/// merge_existing. Runs under the DB write lock, so it must be a pure
/// function of the value; a non-ok status refuses the merge and is
/// returned to the caller.
using ValuePredicate = std::function<Status(std::string_view value)>;

struct DbStats {
  std::uint64_t puts = 0;
  std::uint64_t gets = 0;
  std::uint64_t deletes = 0;
  std::uint64_t merges = 0;
  /// Merge operands applied by fold_merges_: by reads (get, scan), by
  /// removes returning the old value, and by merges that fold a chain.
  std::uint64_t merge_operands_folded = 0;
  std::uint64_t flushes = 0;
  std::uint64_t compactions = 0;
  std::uint64_t wal_appends = 0;
  std::uint64_t wal_syncs = 0;
  /// Hard foreground stalls: a writer blocked until a flush/compaction
  /// freed pipeline space (episodes / total blocked time). With
  /// background_compaction off every memtable switch flushes inline and
  /// counts as one stop.
  std::uint64_t stall_stops = 0;
  std::uint64_t stall_foreground_ms = 0;
  /// Soft slowdowns: writers slept slowdown_sleep_us because the
  /// pipeline neared saturation (L0 at l0_slowdown_trigger or the
  /// immutable queue full). Kept separate from the hard-stop time.
  std::uint64_t stall_slowdowns = 0;
  std::uint64_t stall_slowdown_ms = 0;
  /// WAL replay outcome from the last open. recovered_records > 0 means
  /// the previous process died with unflushed writes (dirty restart);
  /// tail_corruptions counts WAL files whose tail was torn or corrupt
  /// and got discarded at the first bad record. Exported to gkfs-mon as
  /// kv.wal.recovered_records / kv.wal.tail_corruptions.
  std::uint64_t wal_recovered_records = 0;
  std::uint64_t wal_tail_corruptions = 0;
  std::uint64_t compact_bytes_in = 0;
  std::uint64_t compact_bytes_out = 0;
  std::uint64_t compactions_running = 0;
  std::uint64_t immutable_memtables = 0;
  std::uint64_t level_files[kNumLevels] = {};
  std::uint64_t level_bytes[kNumLevels] = {};
  std::size_t memtable_bytes = 0;
};

class DB;

/// RAII snapshot handle: pins a sequence number against compaction GC.
class Snapshot {
 public:
  ~Snapshot();
  Snapshot(const Snapshot&) = delete;
  Snapshot& operator=(const Snapshot&) = delete;
  [[nodiscard]] std::uint64_t sequence() const noexcept { return seq_; }

 private:
  friend class DB;
  Snapshot(DB* db, std::uint64_t seq) : db_(db), seq_(seq) {}
  DB* db_;
  std::uint64_t seq_;
};

class DB {
 public:
  static Result<std::unique_ptr<DB>> open(const std::filesystem::path& dir,
                                          Options options);
  ~DB();

  DB(const DB&) = delete;
  DB& operator=(const DB&) = delete;

  // -- writes ------------------------------------------------------------
  Status put(std::string_view key, std::string_view value,
             const WriteOptions& wo = {});
  Status erase(std::string_view key, const WriteOptions& wo = {});
  Status merge(std::string_view key, std::string_view operand,
               const WriteOptions& wo = {});
  Status write(const WriteBatch& batch, const WriteOptions& wo = {});

  /// merge-if-present: applies `operand` only if `key` holds a live
  /// record and `pred` (when set) accepts its current value, both
  /// decided under the write lock as insert does. Errc::not_found if
  /// absent; nothing is written when the merge is refused. GekkoFS size
  /// updates use this so a late write never resurrects an unlinked path.
  Status merge_existing(std::string_view key, std::string_view operand,
                        const ValuePredicate& pred = {},
                        const WriteOptions& wo = {});

  /// put-if-absent, atomic w.r.t. other writers. Errc::exists if present.
  /// This is the GekkoFS create(): a single KV insert replaces directory
  /// entry + inode allocation of a traditional FS.
  Status insert(std::string_view key, std::string_view value,
                const WriteOptions& wo = {});

  /// delete-if-present, returning the old value (merge operands folded)
  /// from the same locked lookup. Errc::not_found if absent.
  Result<std::string> remove_existing(std::string_view key,
                                      const WriteOptions& wo = {});

  /// Batched put-if-absent: one lock acquisition and ONE WAL append for
  /// every key that passes its existence check (the batched-create hot
  /// path). Per-key outcome lands in `out` in request order (ok /
  /// exists); a non-ok return means the shared commit failed and no
  /// entry was applied.
  Status insert_many(
      const std::vector<std::pair<std::string, std::string>>& kvs,
      std::vector<Errc>* out, const WriteOptions& wo = {});

  /// Batched delete-if-present, same contract as insert_many. The old
  /// value of each removed key (merge operands folded) lands in
  /// `old_values` so callers can act on what was deleted.
  Status remove_many(const std::vector<std::string>& keys,
                     std::vector<Errc>* out,
                     std::vector<std::string>* old_values,
                     const WriteOptions& wo = {});

  // -- reads -------------------------------------------------------------
  Result<std::string> get(std::string_view key, const ReadOptions& ro = {});
  /// true/false without copying the value (stat-style existence check).
  Result<bool> contains(std::string_view key, const ReadOptions& ro = {});

  /// Ordered scan of user keys in [start, end) (end empty = unbounded),
  /// at a consistent snapshot. fn returns false to stop early.
  Status scan(std::string_view start, std::string_view end,
              const std::function<bool(std::string_view key,
                                       std::string_view value)>& fn,
              const ReadOptions& ro = {});

  /// Prefix scan convenience (GekkoFS readdir: scan "/dir/").
  Status scan_prefix(std::string_view prefix,
                     const std::function<bool(std::string_view,
                                              std::string_view)>& fn,
                     const ReadOptions& ro = {});

  /// Count keys in [start, end) — used by tests and df-style stats.
  Result<std::uint64_t> count_range(std::string_view start,
                                    std::string_view end);

  // -- management ---------------------------------------------------------
  std::shared_ptr<Snapshot> snapshot();
  /// Force memtable flush (and wait for it).
  Status flush();
  /// Seal the active memtable and queue it for flushing without waiting
  /// (RocksDB's FlushOptions::wait = false). With background_compaction
  /// off it stays an immutable memtable until the next flush() or
  /// memtable switch.
  Status seal_memtable();
  /// Run compactions until no level is over threshold.
  Status compact_all();
  [[nodiscard]] DbStats stats() const;
  [[nodiscard]] const Options& options() const { return options_; }

 private:
  friend class Snapshot;

  /// One sealed memtable waiting to become an L0 table. wal_no is the
  /// WAL file that covered it (0 = none, e.g. recovery replay); the
  /// flush deletes exactly that file once the data is durable.
  struct ImmTable {
    std::shared_ptr<MemTable> mem;
    std::uint64_t wal_no = 0;
  };

  DB(std::filesystem::path dir, Options options);

  Status recover_();
  Status write_locked_(const WriteBatch& batch, bool sync, UniqueLock& lock)
      GEKKO_REQUIRES(mutex_);
  Status maybe_switch_memtable_(UniqueLock& lock) GEKKO_REQUIRES(mutex_);
  /// Seal mem_ behind a fresh WAL and queue it for flushing.
  Status switch_memtable_locked_() GEKKO_REQUIRES(mutex_);
  /// Flush the OLDEST immutable memtable (front of the queue). With
  /// unlocked_io the SST build runs with mutex_ released; the version
  /// install and the queue pop happen in the same lock hold, so readers
  /// never see an imm and its L0 table at once (merge operands would
  /// double-apply).
  Status flush_front_(UniqueLock& lock, bool unlocked_io)
      GEKKO_REQUIRES(mutex_);
  /// Build one L0 table from a sealed memtable. Pure file I/O — no DB
  /// state touched, safe to run with or without the lock.
  Result<FileEntry> build_l0_(const MemTable& mem, std::uint64_t file_no);
  /// Level with compaction debt whose input/output levels are idle;
  /// -1 when there is nothing runnable right now.
  [[nodiscard]] int pick_compaction_level_locked_() const
      GEKKO_REQUIRES(mutex_);
  /// Compact `level` into level+1. Caller guarantees both levels are
  /// idle; the level-busy flags serialize compactions per level pair
  /// while allowing disjoint pairs (and flushes) to run concurrently.
  Status compact_level_(int level, UniqueLock& lock, bool unlocked_io)
      GEKKO_REQUIRES(mutex_);
  void update_slowdown_locked_() GEKKO_REQUIRES(mutex_);
  /// Soft backpressure: sleep once (outside the lock) when the pipeline
  /// is near saturation.
  void throttle_();
  Status lookup_locked_(std::string_view key, std::uint64_t snap,
                        LookupResult* lr) GEKKO_REQUIRES(mutex_);
  /// Body of merge / merge_existing; *batch holds the operand.
  Status merge_(std::string_view key, std::string_view operand,
                bool must_exist, const ValuePredicate& pred,
                const WriteOptions& wo);
  /// Decides what a merge commits, under the write lock. The operand
  /// stays in *batch while the key's chain in mem_ has a live base and
  /// at most kMaxSuccessiveMerges - 2 operands; otherwise one
  /// lookup_locked_ resolves the key and *batch becomes a put of base +
  /// operands + operand folded. Never folds across a tombstone.
  /// Errc::not_found (must_exist) or pred's status refuses the merge.
  Status bound_chain_locked_(std::string_view key, std::string_view operand,
                             bool must_exist, const ValuePredicate& pred,
                             WriteBatch* batch) GEKKO_REQUIRES(mutex_);
  void worker_loop_();
  void fail_background_locked_(const Status& st) GEKKO_REQUIRES(mutex_);
  void release_snapshot_(std::uint64_t seq);
  [[nodiscard]] std::uint64_t oldest_snapshot_locked_() const
      GEKKO_REQUIRES(mutex_);
  Result<std::string> fold_merges_(std::string_view key,
                                   const LookupResult& lr) const;
  /// The value a lookup of a present key resolved to: its operands
  /// folded, or its base value when none are pending.
  Result<std::string> resolve_(std::string_view key, LookupResult& lr) const;
  Status get_internal_(std::string_view key, std::uint64_t snap,
                       LookupResult* lr);

  std::filesystem::path dir_;
  Options options_;

  mutable Mutex mutex_{"kv.db", lockdep::rank::kKvDb};
  CondVar work_cv_;  // wakes the background workers
  CondVar done_cv_;  // signals flush/compaction done
  std::shared_ptr<MemTable> mem_ GEKKO_GUARDED_BY(mutex_);
  /// Sealed memtables, oldest first. Flushes drain strictly from the
  /// front (one at a time) so L0 file numbers preserve recency order.
  std::deque<ImmTable> imms_ GEKKO_GUARDED_BY(mutex_);
  std::optional<WalWriter> wal_ GEKKO_GUARDED_BY(mutex_);
  VersionSet versions_ GEKKO_GUARDED_BY(mutex_);
  std::multiset<std::uint64_t> active_snapshots_ GEKKO_GUARDED_BY(mutex_);

  std::vector<std::thread> workers_;
  bool shutting_down_ GEKKO_GUARDED_BY(mutex_) = false;
  bool background_error_set_ GEKKO_GUARDED_BY(mutex_) = false;
  Status background_error_ GEKKO_GUARDED_BY(mutex_) = Status::ok();
  bool flush_in_progress_ GEKKO_GUARDED_BY(mutex_) = false;
  /// True while a compaction has this level as input or output.
  bool level_busy_[kNumLevels] GEKKO_GUARDED_BY(mutex_) = {};
  int compactions_running_ GEKKO_GUARDED_BY(mutex_) = 0;

  /// Flush/compaction/WAL/stall tallies, mutated only under mutex_ (the
  /// level_* and memtable fields are recomputed by stats()).
  mutable DbStats stats_ GEKKO_GUARDED_BY(mutex_);
  /// Per-op counters bumped OUTSIDE mutex_ — put()/get() return after
  /// dropping the DB lock and must not re-take it to count. These were
  /// plain DbStats fields once: incrementing them unlocked while
  /// stats() read them under the lock was a data race (found by the
  /// annotation-pass PR; regression-tested in kv_test).
  struct OpCounters {
    std::atomic<std::uint64_t> puts{0};
    std::atomic<std::uint64_t> gets{0};
    std::atomic<std::uint64_t> deletes{0};
    std::atomic<std::uint64_t> merges{0};
    std::atomic<std::uint64_t> merge_operands_folded{0};
    std::atomic<std::uint64_t> stall_slowdowns{0};
    std::atomic<std::uint64_t> stall_slowdown_us{0};
  };
  mutable OpCounters ops_;
  /// Writers read this before taking mutex_; set under the lock on
  /// every pipeline-state transition.
  std::atomic<bool> slowdown_active_{false};
};

}  // namespace gekko::kv

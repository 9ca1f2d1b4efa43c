// Tuning knobs for the LSM KV store (RocksDB stand-in).
//
// Defaults mirror what GekkoFS needs: small values (packed file
// metadata), NAND-friendly sequential writes, strong per-key consistency.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <string_view>

namespace gekko::kv {

/// Associative merge operator (RocksDB-style). GekkoFS uses one to fold
/// size updates into metadata without read-modify-write on the daemon.
class MergeOperator {
 public:
  virtual ~MergeOperator() = default;
  [[nodiscard]] virtual std::string_view name() const = 0;
  /// Fold `operand` into `existing` (absent if the key had no value).
  /// Returns the merged full value.
  [[nodiscard]] virtual std::string merge(
      std::string_view key, const std::string* existing,
      std::string_view operand) const = 0;
  /// Fold every operand into `existing` at once. `operands` is newest
  /// first, the order a lookup collects them in. The default applies
  /// merge() oldest to newest; an operator whose values are records
  /// overrides it to decode and encode the record once (RocksDB's
  /// FullMergeV2).
  [[nodiscard]] virtual std::string full_merge(
      std::string_view key, const std::string* existing,
      std::span<const std::string> operands) const {
    std::string acc = existing != nullptr ? *existing : std::string();
    bool have_acc = existing != nullptr;
    for (auto it = operands.rbegin(); it != operands.rend(); ++it) {
      acc = merge(key, have_acc ? &acc : nullptr, *it);
      have_acc = true;
    }
    return acc;
  }
};

class BlockCache;  // cache.h

struct Options {
  /// Memtable flush threshold (approximate bytes of key+value data).
  std::size_t memtable_budget = 4 * 1024 * 1024;
  /// Target uncompressed size of one SST data block.
  std::size_t block_size = 4 * 1024;
  /// Restart point interval inside a data block.
  int block_restart_interval = 16;
  /// Bloom filter bits per key (0 disables filters).
  int bloom_bits_per_key = 10;
  /// Number of L0 files that triggers an L0->L1 compaction.
  int l0_compaction_trigger = 4;
  /// Max bytes in L1; each deeper level is 10x larger.
  std::uint64_t l1_max_bytes = 16ULL * 1024 * 1024;
  /// Target size of a single SST produced by compaction.
  std::uint64_t target_sst_size = 4ULL * 1024 * 1024;
  /// fsync the WAL on every commit (GekkoFS trades this off; the paper's
  /// deployments run on node-local scratch, so default is buffered).
  bool wal_sync = false;
  /// Run flushes/compactions on background threads (off = inline, used
  /// by deterministic tests; every memtable switch then counts as one
  /// hard stall).
  bool background_compaction = true;
  /// Background workers sharing flush + compaction duty. Flushes stay
  /// strictly ordered (one at a time); extra workers run compactions of
  /// disjoint level pairs concurrently with the flush.
  int compaction_threads = 2;
  /// Sealed memtables allowed to queue before writers hard-stop. The
  /// old engine's behaviour is max_immutable_memtables = 1.
  std::size_t max_immutable_memtables = 2;
  /// L0 file count at which writers start soft-slowing (sleep
  /// slowdown_sleep_us per write) to let compaction catch up.
  int l0_slowdown_trigger = 8;
  /// L0 file count at which writers hard-stop until compaction drains.
  int l0_stop_trigger = 16;
  /// Soft-slowdown sleep per write, microseconds.
  std::uint32_t slowdown_sleep_us = 200;
  /// Merge operator; may be null if merge() is never called.
  std::shared_ptr<const MergeOperator> merge_operator;
  /// Shared LRU cache for SST data blocks; null disables caching.
  std::shared_ptr<BlockCache> block_cache;
};

struct WriteOptions {
  /// Force a durable WAL sync for this write.
  bool sync = false;
};

struct ReadOptions {
  /// Read at this snapshot sequence number (0 = latest).
  std::uint64_t snapshot_seq = 0;
};

}  // namespace gekko::kv

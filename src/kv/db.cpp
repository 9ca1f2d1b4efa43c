// relaxed-ok: see db.h — per-op counters and the slowdown flag/tallies
// are read and bumped outside the DB lock.
#include "kv/db.h"
#include "common/thread_annotations.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <charconv>

#include "common/fileio.h"
#include "common/flight_recorder.h"
#include "kv/cache.h"
#include "common/logging.h"

namespace gekko::kv {
namespace {

std::string wal_file_name(std::uint64_t number) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "wal-%08" PRIu64 ".log", number);
  return buf;
}

/// Extract N from "wal-N.log"; nullopt for other files.
std::optional<std::uint64_t> parse_wal_number(std::string_view name) {
  if (!name.starts_with("wal-") || !name.ends_with(".log")) {
    return std::nullopt;
  }
  std::string_view digits = name.substr(4, name.size() - 8);
  std::uint64_t n = 0;
  auto [p, ec] = std::from_chars(digits.data(), digits.data() + digits.size(),
                                 n);
  if (ec != std::errc{} || p != digits.data() + digits.size()) {
    return std::nullopt;
  }
  return n;
}

std::uint64_t max_bytes_for_level(const Options& opts, int level) {
  std::uint64_t bytes = opts.l1_max_bytes;
  for (int i = 1; i < level; ++i) bytes *= 10;
  return bytes;
}

std::uint64_t elapsed_ms(std::chrono::steady_clock::time_point t0) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
}

}  // namespace

// ---------- Snapshot ----------

Snapshot::~Snapshot() { db_->release_snapshot_(seq_); }

// ---------- open / lifecycle ----------

DB::DB(std::filesystem::path dir, Options options)
    : dir_(std::move(dir)),
      options_(std::move(options)),
      mem_(std::make_shared<MemTable>()),
      versions_(dir_, options_) {}

Result<std::unique_ptr<DB>> DB::open(const std::filesystem::path& dir,
                                     Options options) {
  GEKKO_RETURN_IF_ERROR(io::ensure_dir(dir));
  std::unique_ptr<DB> db(new DB(dir, std::move(options)));
  GEKKO_RETURN_IF_ERROR(db->recover_());
  if (db->options_.background_compaction) {
    const int n = std::max(1, db->options_.compaction_threads);
    db->workers_.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      db->workers_.emplace_back([raw = db.get()] { raw->worker_loop_(); });
    }
  }
  return db;
}

DB::~DB() {
  {
    UniqueLock lock(mutex_);
    shutting_down_ = true;
  }
  work_cv_.notify_all();
  for (auto& t : workers_) {
    if (t.joinable()) t.join();
  }
  // Final flush so close/reopen round-trips losslessly even without WAL
  // sync. Errors here are logged, not thrown.
  UniqueLock lock(mutex_);
  if (wal_) (void)wal_->close();  // status-ignored-ok: shutdown flush; WAL already synced per policy
  if (!mem_->empty()) {
    // The current WAL covers exactly mem_; the flush deletes it.
    imms_.push_back(ImmTable{std::move(mem_), versions_.wal_number()});
    mem_ = std::make_shared<MemTable>();
  } else {
    // status-ignored-ok: best-effort cleanup; a stale WAL replays as a no-op
    (void)io::remove_file(dir_ / wal_file_name(versions_.wal_number()));
  }
  while (!imms_.empty()) {
    if (Status st = flush_front_(lock, /*unlocked_io=*/false); !st.is_ok()) {
      GEKKO_ERROR("kv.db") << "final flush failed: " << st.to_string();
      return;  // keep the remaining WALs for replay on the next open
    }
  }
}

Status DB::recover_() {
  UniqueLock lock(mutex_);
  GEKKO_RETURN_IF_ERROR(versions_.recover());

  // Replay every WAL on disk in ascending file-number order. WALs whose
  // memtables were flushed get deleted after the flush, so anything
  // still present holds unflushed ops.
  auto names = io::list_dir(dir_);
  if (!names) return names.status();
  std::vector<std::uint64_t> wal_numbers;
  for (const auto& name : *names) {
    if (auto n = parse_wal_number(name)) wal_numbers.push_back(*n);
  }
  std::sort(wal_numbers.begin(), wal_numbers.end());

  std::uint64_t max_seq = versions_.last_sequence();
  for (const std::uint64_t n : wal_numbers) {
    auto stats = wal_recover(
        dir_ / wal_file_name(n),
        [&](SequenceNumber first_seq, std::string_view bytes) -> Status {
          auto batch = WriteBatch::from_bytes(bytes);
          if (!batch) return batch.status();
          SequenceNumber seq = first_seq;
          GEKKO_RETURN_IF_ERROR(batch->for_each(
              [&](ValueType t, std::string_view k, std::string_view v) {
                mem_->add(seq++, t, k, v);
              }));
          if (seq > 0 && seq - 1 > max_seq) max_seq = seq - 1;
          return Status::ok();
        });
    if (!stats) return stats.status();
    stats_.wal_recovered_records += stats->records_applied;
    flight::record(flight::Subsys::kv, flight::ev::kv_wal_recover,
                   stats->records_applied);
    if (stats->tail_corruption) {
      ++stats_.wal_tail_corruptions;
      GEKKO_WARN("kv.db") << "wal " << wal_file_name(n)
                          << ": corrupt tail discarded after "
                          << stats->records_applied << " records";
    }
  }
  versions_.set_last_sequence(max_seq);

  // Persist replayed data as an L0 table, then discard the old WALs
  // (wal_no 0 = the flush itself deletes nothing; the whole replay set
  // goes below).
  if (!mem_->empty()) {
    imms_.push_back(ImmTable{std::move(mem_), 0});
    mem_ = std::make_shared<MemTable>();
    GEKKO_RETURN_IF_ERROR(flush_front_(lock, /*unlocked_io=*/false));
  }
  for (const std::uint64_t n : wal_numbers) {
    // status-ignored-ok: best-effort cleanup; recovery re-deletes leftovers
    (void)io::remove_file(dir_ / wal_file_name(n));
  }

  const std::uint64_t wal_no = versions_.next_file_number();
  auto wal = WalWriter::create(dir_ / wal_file_name(wal_no));
  if (!wal) return wal.status();
  wal_ = std::move(*wal);
  versions_.set_wal_number(wal_no);
  return versions_.save_manifest();
}

// ---------- writes ----------

Status DB::put(std::string_view key, std::string_view value,
               const WriteOptions& wo) {
  WriteBatch batch;
  batch.put(key, value);
  Status st = write(batch, wo);
  if (st.is_ok()) ops_.puts.fetch_add(1, std::memory_order_relaxed);
  return st;
}

Status DB::erase(std::string_view key, const WriteOptions& wo) {
  WriteBatch batch;
  batch.erase(key);
  Status st = write(batch, wo);
  if (st.is_ok()) ops_.deletes.fetch_add(1, std::memory_order_relaxed);
  return st;
}

Status DB::merge(std::string_view key, std::string_view operand,
                 const WriteOptions& wo) {
  return merge_(key, operand, /*must_exist=*/false, {}, wo);
}

Status DB::merge_existing(std::string_view key, std::string_view operand,
                          const ValuePredicate& pred,
                          const WriteOptions& wo) {
  return merge_(key, operand, /*must_exist=*/true, pred, wo);
}

Status DB::merge_(std::string_view key, std::string_view operand,
                  bool must_exist, const ValuePredicate& pred,
                  const WriteOptions& wo) {
  if (!options_.merge_operator) {
    return Status{Errc::not_supported, "no merge operator configured"};
  }
  WriteBatch batch;
  batch.merge(key, operand);
  throttle_();
  UniqueLock lock(mutex_);
  if (background_error_set_) return background_error_;
  GEKKO_RETURN_IF_ERROR(
      bound_chain_locked_(key, operand, must_exist, pred, &batch));
  Status st = write_locked_(batch, wo.sync || options_.wal_sync, lock);
  if (st.is_ok()) ops_.merges.fetch_add(1, std::memory_order_relaxed);
  return st;
}

Status DB::write(const WriteBatch& batch, const WriteOptions& wo) {
  if (batch.empty()) return Status::ok();
  throttle_();
  UniqueLock lock(mutex_);
  if (background_error_set_) return background_error_;
  return write_locked_(batch, wo.sync || options_.wal_sync, lock);
}

Status DB::lookup_locked_(std::string_view key, std::uint64_t snap,
                          LookupResult* lr) {
  mem_->get(key, snap, lr);
  if (lr->state != LookupState::not_present) return Status::ok();
  for (auto it = imms_.rbegin(); it != imms_.rend(); ++it) {
    it->mem->get(key, snap, lr);
    if (lr->state != LookupState::not_present) return Status::ok();
  }
  auto version = versions_.current();
  for (const FileEntry* f : version->files_for_key(key)) {
    GEKKO_RETURN_IF_ERROR(f->table->get(key, snap, lr));
    if (lr->state != LookupState::not_present) break;
  }
  return Status::ok();
}

namespace {
bool lookup_exists(const LookupResult& lr) {
  return lr.state == LookupState::found ||
         (lr.state == LookupState::not_present && !lr.pending_merges.empty());
}
}  // namespace

Status DB::insert(std::string_view key, std::string_view value,
                  const WriteOptions& wo) {
  throttle_();
  UniqueLock lock(mutex_);
  if (background_error_set_) return background_error_;
  // Existence check under the write lock makes this linearizable; the
  // read path below never blocks on I/O beyond table reads.
  LookupResult lr;
  GEKKO_RETURN_IF_ERROR(lookup_locked_(key, versions_.last_sequence(), &lr));
  if (lookup_exists(lr)) return Errc::exists;

  WriteBatch batch;
  batch.put(key, value);
  Status st = write_locked_(batch, wo.sync || options_.wal_sync, lock);
  if (st.is_ok()) ops_.puts.fetch_add(1, std::memory_order_relaxed);
  return st;
}

Result<std::string> DB::remove_existing(std::string_view key,
                                        const WriteOptions& wo) {
  throttle_();
  UniqueLock lock(mutex_);
  if (background_error_set_) return background_error_;
  LookupResult lr;
  GEKKO_RETURN_IF_ERROR(lookup_locked_(key, versions_.last_sequence(), &lr));
  if (!lookup_exists(lr)) return Errc::not_found;
  GEKKO_ASSIGN_OR_RETURN(std::string old_value, resolve_(key, lr));

  WriteBatch batch;
  batch.erase(key);
  GEKKO_RETURN_IF_ERROR(
      write_locked_(batch, wo.sync || options_.wal_sync, lock));
  ops_.deletes.fetch_add(1, std::memory_order_relaxed);
  return old_value;
}

Status DB::bound_chain_locked_(std::string_view key, std::string_view operand,
                              bool must_exist, const ValuePredicate& pred,
                              WriteBatch* batch) {
  const MemTable::ChainTop top =
      mem_->chain_top(key, kMaxSuccessiveMerges - 1);
  if (top.base == LookupState::deleted) {
    // Never fold across a tombstone: the chain reads as it always did.
    if (must_exist) return Errc::not_found;
    return Status::ok();
  }
  if (top.base == LookupState::found &&
      top.operands + 1 < kMaxSuccessiveMerges && !pred) {
    return Status::ok();  // a short chain on a live base in mem_: stack
  }
  // The K-th operand, a base outside mem_, or a predicate to check:
  // resolve the key once and commit the fold as an ordinary value.
  LookupResult lr;
  GEKKO_RETURN_IF_ERROR(lookup_locked_(key, versions_.last_sequence(), &lr));
  if (must_exist && !lookup_exists(lr)) return Errc::not_found;
  if (lr.state == LookupState::deleted) return Status::ok();
  std::string folded;
  if (pred) {
    GEKKO_ASSIGN_OR_RETURN(std::string current, resolve_(key, lr));
    GEKKO_RETURN_IF_ERROR(pred(current));
    folded = options_.merge_operator->merge(key, &current, operand);
  } else {
    // One full_merge over base, operands and this operand (newest).
    lr.pending_merges.insert(lr.pending_merges.begin(), std::string(operand));
    GEKKO_ASSIGN_OR_RETURN(folded, fold_merges_(key, lr));
  }
  batch->clear();
  batch->put(key, folded);
  return Status::ok();
}

Status DB::insert_many(
    const std::vector<std::pair<std::string, std::string>>& kvs,
    std::vector<Errc>* out, const WriteOptions& wo) {
  out->assign(kvs.size(), Errc::ok);
  if (kvs.empty()) return Status::ok();
  throttle_();
  UniqueLock lock(mutex_);
  if (background_error_set_) return background_error_;
  const std::uint64_t snap = versions_.last_sequence();
  WriteBatch batch;
  std::set<std::string_view> in_batch;  // duplicates within one request
  std::uint64_t accepted = 0;
  for (std::size_t i = 0; i < kvs.size(); ++i) {
    const auto& [key, value] = kvs[i];
    if (in_batch.count(key) != 0) {
      (*out)[i] = Errc::exists;
      continue;
    }
    LookupResult lr;
    GEKKO_RETURN_IF_ERROR(lookup_locked_(key, snap, &lr));
    if (lookup_exists(lr)) {
      (*out)[i] = Errc::exists;
      continue;
    }
    batch.put(key, value);
    in_batch.insert(key);
    ++accepted;
  }
  if (accepted == 0) return Status::ok();
  // One WAL append commits every accepted entry atomically.
  Status st = write_locked_(batch, wo.sync || options_.wal_sync, lock);
  if (st.is_ok()) ops_.puts.fetch_add(accepted, std::memory_order_relaxed);
  return st;
}

Status DB::remove_many(const std::vector<std::string>& keys,
                       std::vector<Errc>* out,
                       std::vector<std::string>* old_values,
                       const WriteOptions& wo) {
  out->assign(keys.size(), Errc::ok);
  old_values->assign(keys.size(), std::string());
  if (keys.empty()) return Status::ok();
  throttle_();
  UniqueLock lock(mutex_);
  if (background_error_set_) return background_error_;
  const std::uint64_t snap = versions_.last_sequence();
  WriteBatch batch;
  std::set<std::string_view> in_batch;
  std::uint64_t accepted = 0;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const std::string& key = keys[i];
    if (in_batch.count(key) != 0) {
      (*out)[i] = Errc::not_found;
      continue;
    }
    LookupResult lr;
    GEKKO_RETURN_IF_ERROR(lookup_locked_(key, snap, &lr));
    if (!lookup_exists(lr)) {
      (*out)[i] = Errc::not_found;
      continue;
    }
    GEKKO_ASSIGN_OR_RETURN((*old_values)[i], resolve_(key, lr));
    batch.erase(key);
    in_batch.insert(key);
    ++accepted;
  }
  if (accepted == 0) return Status::ok();
  Status st = write_locked_(batch, wo.sync || options_.wal_sync, lock);
  if (st.is_ok()) ops_.deletes.fetch_add(accepted, std::memory_order_relaxed);
  return st;
}

Status DB::write_locked_(const WriteBatch& batch, bool sync,
                         UniqueLock& lock) {
  const SequenceNumber first_seq = versions_.last_sequence() + 1;
  GEKKO_RETURN_IF_ERROR(wal_->append(
      first_seq,
      std::string_view(reinterpret_cast<const char*>(batch.data().data()),
                       batch.data().size()),
      sync));
  ++stats_.wal_appends;
  if (sync) ++stats_.wal_syncs;
  flight::record(flight::Subsys::kv, flight::ev::kv_wal_append,
                 batch.data().size());

  SequenceNumber seq = first_seq;
  GEKKO_RETURN_IF_ERROR(batch.for_each(
      [&](ValueType t, std::string_view k, std::string_view v) {
        mem_->add(seq++, t, k, v);
      }));
  versions_.set_last_sequence(seq - 1);
  return maybe_switch_memtable_(lock);
}

Status DB::switch_memtable_locked_() {
  const std::uint64_t imm_wal = versions_.wal_number();
  const std::uint64_t wal_no = versions_.next_file_number();
  auto wal = WalWriter::create(dir_ / wal_file_name(wal_no));
  if (!wal) return wal.status();
  (void)wal_->close();  // status-ignored-ok: rotated-out WAL; its batches are in the imm memtable
  wal_ = std::move(*wal);
  versions_.set_wal_number(wal_no);
  imms_.push_back(ImmTable{std::move(mem_), imm_wal});
  mem_ = std::make_shared<MemTable>();
  update_slowdown_locked_();
  return Status::ok();
}

Status DB::maybe_switch_memtable_(UniqueLock& lock) {
  if (mem_->approximate_bytes() < options_.memtable_budget) {
    return Status::ok();
  }

  if (!options_.background_compaction) {
    // Inline mode: the switch flushes (and settles compaction debt) on
    // the foreground thread — deterministically one hard stop per
    // memtable switch, timed end to end.
    const auto t0 = std::chrono::steady_clock::now();
    GEKKO_RETURN_IF_ERROR(switch_memtable_locked_());
    while (!imms_.empty()) {
      GEKKO_RETURN_IF_ERROR(flush_front_(lock, /*unlocked_io=*/false));
    }
    for (;;) {
      const int level = pick_compaction_level_locked_();
      if (level < 0) break;
      GEKKO_RETURN_IF_ERROR(compact_level_(level, lock, false));
    }
    ++stats_.stall_stops;
    stats_.stall_foreground_ms += elapsed_ms(t0);
    return Status::ok();
  }

  // Hard stop only when the pipeline is truly saturated: the immutable
  // queue is full or L0 hit the stop trigger. Below that, the switch is
  // free and the flush happens behind the writer's back.
  bool stalled = false;
  std::chrono::steady_clock::time_point t0;
  for (;;) {
    if (background_error_set_) return background_error_;
    const bool imms_full = imms_.size() >= options_.max_immutable_memtables;
    const bool l0_full =
        versions_.current()->levels[0].size() >=
        static_cast<std::size_t>(options_.l0_stop_trigger);
    if (!imms_full && !l0_full) break;
    if (!stalled) {
      stalled = true;
      t0 = std::chrono::steady_clock::now();
      ++stats_.stall_stops;
    }
    work_cv_.notify_all();
    done_cv_.wait(lock);
  }
  if (stalled) stats_.stall_foreground_ms += elapsed_ms(t0);

  GEKKO_RETURN_IF_ERROR(switch_memtable_locked_());
  work_cv_.notify_one();
  return Status::ok();
}

Result<FileEntry> DB::build_l0_(const MemTable& mem, std::uint64_t file_no) {
  auto file = io::WritableFile::create(dir_ / table_file_name(file_no));
  if (!file) return file.status();
  TableBuilder builder(options_, std::move(*file));
  SkipList::Iterator it = mem.iterator();
  for (it.seek_to_first(); it.valid(); it.next()) {
    GEKKO_RETURN_IF_ERROR(builder.add(it.key(), it.value()));
  }
  auto meta = builder.finish();
  if (!meta) return meta.status();
  meta->file_number = file_no;
  auto table = Table::open(dir_ / table_file_name(file_no), options_,
                           file_no);
  if (!table) return table.status();
  FileEntry entry;
  entry.meta = std::move(*meta);
  entry.table = std::move(*table);
  return entry;
}

Status DB::flush_front_(UniqueLock& lock, bool unlocked_io) {
  if (imms_.empty()) return Status::ok();
  // Copy the front entry; it STAYS in the queue while the SST builds so
  // readers keep finding its data. A sealed memtable is immutable, so
  // iterating it with the lock released is safe.
  ImmTable imm = imms_.front();
  if (imm.mem->empty()) {
    imms_.pop_front();
    if (imm.wal_no != 0) {
      // status-ignored-ok: best-effort; recovery re-deletes leftover WALs
      (void)io::remove_file(dir_ / wal_file_name(imm.wal_no));
    }
    update_slowdown_locked_();
    done_cv_.notify_all();
    return Status::ok();
  }
  const std::uint64_t file_no = versions_.next_file_number();
  if (unlocked_io) lock.unlock();
  auto entry = build_l0_(*imm.mem, file_no);
  if (unlocked_io) lock.lock();
  if (!entry) return entry.status();
  // Version install and queue pop in ONE lock hold: a reader must never
  // see an imm and its flushed L0 table at once (pending merge operands
  // would double-apply).
  GEKKO_RETURN_IF_ERROR(versions_.apply(0, {std::move(*entry)}, {}));
  imms_.pop_front();
  ++stats_.flushes;
  flight::record(flight::Subsys::kv, flight::ev::kv_flush,
                 imm.mem->approximate_bytes());
  if (imm.wal_no != 0) {
    // status-ignored-ok: best-effort; recovery re-deletes leftover WALs
    (void)io::remove_file(dir_ / wal_file_name(imm.wal_no));
  }
  update_slowdown_locked_();
  done_cv_.notify_all();
  work_cv_.notify_all();
  return Status::ok();
}

// ---------- compaction ----------

int DB::pick_compaction_level_locked_() const {
  auto version = versions_.current();
  if (version->levels[0].size() >=
          static_cast<std::size_t>(options_.l0_compaction_trigger) &&
      !level_busy_[0] && !level_busy_[1]) {
    return 0;
  }
  for (int level = 1; level < kNumLevels - 1; ++level) {
    if (version->level_bytes(level) > max_bytes_for_level(options_, level) &&
        !level_busy_[level] && !level_busy_[level + 1]) {
      return level;
    }
  }
  return -1;
}

Status DB::compact_level_(int level, UniqueLock& lock, bool unlocked_io) {
  auto version = versions_.current();
  const int out_level = level + 1;

  // Pick inputs.
  std::vector<const FileEntry*> inputs;
  if (level == 0) {
    for (const auto& f : version->levels[0]) inputs.push_back(&f);
  } else {
    if (version->levels[level].empty()) return Status::ok();
    // Oldest-first rotation: take the file with the smallest key.
    inputs.push_back(&version->levels[level].front());
  }
  if (inputs.empty()) return Status::ok();

  std::string begin_ukey{extract_user_key(inputs[0]->meta.smallest)};
  std::string end_ukey{extract_user_key(inputs[0]->meta.largest)};
  for (const auto* f : inputs) {
    std::string_view lo = extract_user_key(f->meta.smallest);
    std::string_view hi = extract_user_key(f->meta.largest);
    if (lo < begin_ukey) begin_ukey.assign(lo);
    if (hi > end_ukey) end_ukey.assign(hi);
  }
  for (const FileEntry* f : version->overlapping(out_level, begin_ukey,
                                                 end_ukey)) {
    inputs.push_back(f);
  }

  // Is the output the bottommost data for this key range? If so,
  // tombstones can be dropped.
  bool bottommost = true;
  for (int l = out_level + 1; l < kNumLevels; ++l) {
    if (!version->overlapping(l, begin_ukey, end_ukey).empty()) {
      bottommost = false;
      break;
    }
  }

  // Snapshots taken AFTER this point sit at/above the current last
  // sequence, which is >= every sequence in the inputs — folding a run
  // to its newest version stays correct for them.
  const std::uint64_t oldest_snap = oldest_snapshot_locked_();
  const bool can_fold = active_snapshots_.empty();

  std::vector<std::uint64_t> removed;
  std::uint64_t bytes_in = 0;
  removed.reserve(inputs.size());
  for (const FileEntry* f : inputs) {
    removed.push_back(f->meta.file_number);
    bytes_in += f->meta.file_size;
  }

  // Claim both levels: no other compaction may consume these inputs or
  // install into out_level until we finish. Flushes only ADD L0 files,
  // which is safe — they are strictly newer than every input here.
  level_busy_[level] = true;
  level_busy_[out_level] = true;
  ++compactions_running_;

  if (unlocked_io) lock.unlock();
  // `version` keeps every input table alive across the unlocked
  // section; table reads are already lock-free on the read path.
  std::vector<FileEntry> added;
  std::optional<TableBuilder> builder;
  std::uint64_t out_file_no = 0;

  auto open_builder = [&]() -> Status {
    out_file_no = versions_.next_file_number();  // atomic, lock-free
    auto file = io::WritableFile::create(dir_ / table_file_name(out_file_no));
    if (!file) return file.status();
    builder.emplace(options_, std::move(*file));
    return Status::ok();
  };
  auto close_builder = [&]() -> Status {
    if (!builder) return Status::ok();
    if (builder->entry_count() == 0) {
      builder.reset();
      // status-ignored-ok: best-effort cleanup of a half-written table
      (void)io::remove_file(dir_ / table_file_name(out_file_no));
      return Status::ok();
    }
    auto meta = builder->finish();
    builder.reset();
    if (!meta) return meta.status();
    meta->file_number = out_file_no;
    auto table = Table::open(dir_ / table_file_name(out_file_no), options_,
                             out_file_no);
    if (!table) return table.status();
    FileEntry e;
    e.meta = std::move(*meta);
    e.table = std::move(*table);
    added.push_back(std::move(e));
    return Status::ok();
  };
  auto emit = [&](std::string_view ikey, std::string_view value) -> Status {
    if (!builder) GEKKO_RETURN_IF_ERROR(open_builder());
    GEKKO_RETURN_IF_ERROR(builder->add(ikey, value));
    if (builder->bytes_written() >= options_.target_sst_size) {
      GEKKO_RETURN_IF_ERROR(close_builder());
    }
    return Status::ok();
  };

  Status st = [&]() -> Status {
    std::vector<std::unique_ptr<InternalIterator>> children;
    children.reserve(inputs.size());
    for (const FileEntry* f : inputs) {
      children.push_back(std::make_unique<TableIterator>(f->table));
    }
    MergingIterator merged(std::move(children));
    merged.seek_to_first();

    // Walk runs of identical user keys (newest version first).
    while (merged.valid()) {
      const std::string user_key{extract_user_key(merged.key())};

      // Collect the whole version run for this user key.
      struct Ver {
        std::uint64_t trailer;
        std::string value;
      };
      std::vector<Ver> run;
      while (merged.valid() && extract_user_key(merged.key()) == user_key) {
        run.push_back(Ver{extract_trailer(merged.key()),
                          std::string(merged.value())});
        merged.next();
      }

      if (!can_fold) {
        // Conservative: keep all versions that any snapshot might need,
        // i.e. the newest version at/below each snapshot boundary plus
        // everything newer than the oldest snapshot. Simplest safe rule:
        // keep everything.
        for (const auto& v : run) {
          const ValueType t = trailer_type(v.trailer);
          if (bottommost && t == ValueType::deletion && &v == &run.front() &&
              run.size() == 1 &&
              trailer_sequence(v.trailer) <= oldest_snap) {
            continue;  // lone tombstone at the bottom, invisible history
          }
          GEKKO_RETURN_IF_ERROR(
              emit(make_internal_key(user_key, trailer_sequence(v.trailer),
                                     t),
                   v.value));
        }
        continue;
      }

      // Fold the run to the single visible version. Newest-first order:
      // merges pile up until a base value/deletion.
      std::vector<const Ver*> merges;  // newest first
      const Ver* base = nullptr;
      for (const auto& v : run) {
        const ValueType t = trailer_type(v.trailer);
        if (t == ValueType::merge) {
          merges.push_back(&v);
          continue;
        }
        base = &v;
        break;
      }

      const std::uint64_t newest_seq = trailer_sequence(run.front().trailer);
      if (merges.empty()) {
        if (base == nullptr) continue;  // empty run (can't happen)
        const ValueType t = trailer_type(base->trailer);
        if (t == ValueType::deletion) {
          if (!bottommost) {
            GEKKO_RETURN_IF_ERROR(emit(
                make_internal_key(user_key, newest_seq, ValueType::deletion),
                ""));
          }
          continue;
        }
        GEKKO_RETURN_IF_ERROR(emit(
            make_internal_key(user_key, newest_seq, ValueType::value),
            base->value));
        continue;
      }

      // Merge folding. If this range isn't bottommost and we found no
      // base here, an older base may live deeper: keep operands
      // unfolded.
      const bool has_base =
          base != nullptr && trailer_type(base->trailer) == ValueType::value;
      const bool base_is_tombstone =
          base != nullptr &&
          trailer_type(base->trailer) == ValueType::deletion;
      if (!has_base && !base_is_tombstone && !bottommost) {
        for (const Ver* m : merges) {
          GEKKO_RETURN_IF_ERROR(
              emit(make_internal_key(user_key, trailer_sequence(m->trailer),
                                     ValueType::merge),
                   m->value));
        }
        continue;
      }
      if (!options_.merge_operator) {
        return Status{Errc::internal, "merge records without merge operator"};
      }
      std::vector<std::string> operands;  // newest first
      operands.reserve(merges.size());
      for (const Ver* m : merges) operands.push_back(m->value);
      const std::string acc = options_.merge_operator->full_merge(
          user_key, has_base ? &base->value : nullptr, operands);
      GEKKO_RETURN_IF_ERROR(emit(
          make_internal_key(user_key, newest_seq, ValueType::value), acc));
    }
    return close_builder();
  }();
  if (unlocked_io) lock.lock();

  std::uint64_t bytes_out = 0;
  for (const auto& e : added) bytes_out += e.meta.file_size;
  if (st.is_ok()) {
    st = versions_.apply(out_level, std::move(added), removed);
  }
  level_busy_[level] = false;
  level_busy_[out_level] = false;
  --compactions_running_;
  if (!st.is_ok()) {
    done_cv_.notify_all();
    return st;
  }
  for (const std::uint64_t n : removed) {
    // status-ignored-ok: best-effort cleanup of an orphaned table file
    (void)io::remove_file(dir_ / table_file_name(n));
    if (options_.block_cache) options_.block_cache->erase_table(n);
  }
  ++stats_.compactions;
  flight::record(flight::Subsys::kv, flight::ev::kv_compaction,
                 static_cast<std::uint64_t>(level));
  stats_.compact_bytes_in += bytes_in;
  stats_.compact_bytes_out += bytes_out;
  update_slowdown_locked_();
  done_cv_.notify_all();
  work_cv_.notify_all();
  return Status::ok();
}

void DB::update_slowdown_locked_() {
  const bool slow =
      imms_.size() >= options_.max_immutable_memtables ||
      versions_.current()->levels[0].size() >=
          static_cast<std::size_t>(options_.l0_slowdown_trigger);
  slowdown_active_.store(slow, std::memory_order_relaxed);
}

void DB::throttle_() {
  if (!options_.background_compaction) return;  // no workers to catch up
  if (!slowdown_active_.load(std::memory_order_relaxed)) return;
  ops_.stall_slowdowns.fetch_add(1, std::memory_order_relaxed);
  std::this_thread::sleep_for(
      std::chrono::microseconds(options_.slowdown_sleep_us));
  ops_.stall_slowdown_us.fetch_add(options_.slowdown_sleep_us,
                                   std::memory_order_relaxed);
}

void DB::fail_background_locked_(const Status& st) {
  background_error_set_ = true;
  background_error_ = st;
  GEKKO_ERROR("kv.db") << "background work failed: " << st.to_string();
  done_cv_.notify_all();
  work_cv_.notify_all();
}

void DB::worker_loop_() {
  UniqueLock lock(mutex_);
  for (;;) {
    if (shutting_down_ || background_error_set_) return;
    // Flushes drain strictly oldest-first, one at a time, so L0 file
    // numbers preserve recency order; compactions of disjoint level
    // pairs run concurrently with the flush and with each other.
    if (!imms_.empty() && !flush_in_progress_) {
      flush_in_progress_ = true;
      Status st = flush_front_(lock, /*unlocked_io=*/true);
      flush_in_progress_ = false;
      if (!st.is_ok()) {
        fail_background_locked_(st);
        return;
      }
      continue;
    }
    const int level = pick_compaction_level_locked_();
    if (level >= 0) {
      Status st = compact_level_(level, lock, /*unlocked_io=*/true);
      if (!st.is_ok()) {
        fail_background_locked_(st);
        return;
      }
      continue;
    }
    work_cv_.wait(lock);
  }
}

// ---------- reads ----------

Status DB::get_internal_(std::string_view key, std::uint64_t snap,
                         LookupResult* lr) {
  std::shared_ptr<MemTable> mem;
  std::vector<std::shared_ptr<MemTable>> imms;  // newest first
  std::shared_ptr<const Version> version;
  {
    UniqueLock lock(mutex_);
    mem = mem_;
    imms.reserve(imms_.size());
    for (auto it = imms_.rbegin(); it != imms_.rend(); ++it) {
      imms.push_back(it->mem);
    }
    version = versions_.current();
  }
  mem->get(key, snap, lr);
  if (lr->state != LookupState::not_present) return Status::ok();
  for (const auto& m : imms) {
    m->get(key, snap, lr);
    if (lr->state != LookupState::not_present) return Status::ok();
  }
  for (const FileEntry* f : version->files_for_key(key)) {
    GEKKO_RETURN_IF_ERROR(f->table->get(key, snap, lr));
    if (lr->state != LookupState::not_present) return Status::ok();
  }
  return Status::ok();
}

Result<std::string> DB::fold_merges_(std::string_view key,
                                     const LookupResult& lr) const {
  if (!options_.merge_operator) {
    return Status{Errc::internal, "merge records without merge operator"};
  }
  std::string acc = options_.merge_operator->full_merge(
      key, lr.state == LookupState::found ? &lr.value : nullptr,
      lr.pending_merges);
  ops_.merge_operands_folded.fetch_add(lr.pending_merges.size(),
                                       std::memory_order_relaxed);
  return acc;
}

Result<std::string> DB::resolve_(std::string_view key,
                                 LookupResult& lr) const {
  if (lr.pending_merges.empty()) return std::move(lr.value);
  return fold_merges_(key, lr);
}

Result<std::string> DB::get(std::string_view key, const ReadOptions& ro) {
  ops_.gets.fetch_add(1, std::memory_order_relaxed);
  std::uint64_t snap = ro.snapshot_seq;
  if (snap == 0) {
    UniqueLock lock(mutex_);
    snap = versions_.last_sequence();
  }
  LookupResult lr;
  GEKKO_RETURN_IF_ERROR(get_internal_(key, snap, &lr));

  if (!lr.pending_merges.empty()) {
    return fold_merges_(key, lr);
  }
  switch (lr.state) {
    case LookupState::found:
      return std::move(lr.value);
    case LookupState::deleted:
    case LookupState::not_present:
      return Errc::not_found;
  }
  return Errc::internal;
}

Result<bool> DB::contains(std::string_view key, const ReadOptions& ro) {
  auto r = get(key, ro);
  if (r.is_ok()) return true;
  if (r.code() == Errc::not_found) return false;
  return r.status();
}

Status DB::scan(std::string_view start, std::string_view end,
                const std::function<bool(std::string_view,
                                         std::string_view)>& fn,
                const ReadOptions& ro) {
  std::shared_ptr<MemTable> mem;
  std::vector<std::shared_ptr<MemTable>> imms;
  std::shared_ptr<const Version> version;
  std::uint64_t snap = ro.snapshot_seq;
  {
    UniqueLock lock(mutex_);
    mem = mem_;
    imms.reserve(imms_.size());
    for (const auto& imm : imms_) imms.push_back(imm.mem);
    version = versions_.current();
    if (snap == 0) snap = versions_.last_sequence();
  }

  std::vector<std::unique_ptr<InternalIterator>> children;
  children.push_back(std::make_unique<MemTableIterator>(mem));
  for (const auto& m : imms) {
    children.push_back(std::make_unique<MemTableIterator>(m));
  }
  for (const auto& level : version->levels) {
    for (const auto& f : level) {
      children.push_back(std::make_unique<TableIterator>(f.table));
    }
  }
  MergingIterator it(std::move(children));
  if (start.empty()) {
    it.seek_to_first();
  } else {
    it.seek(make_lookup_key(start, kMaxSequence));
  }

  while (it.valid()) {
    const std::string user_key{extract_user_key(it.key())};
    if (!end.empty() && user_key >= end) break;

    // Resolve visibility for this user key at `snap`.
    LookupResult lr;
    while (it.valid() && extract_user_key(it.key()) == user_key &&
           lr.state == LookupState::not_present) {
      const std::uint64_t trailer = extract_trailer(it.key());
      if (trailer_sequence(trailer) <= snap) {
        switch (trailer_type(trailer)) {
          case ValueType::value:
            lr.state = LookupState::found;
            lr.value = std::string(it.value());
            break;
          case ValueType::deletion:
            lr.state = LookupState::deleted;
            break;
          case ValueType::merge:
            lr.pending_merges.emplace_back(it.value());
            break;
        }
      }
      it.next();
    }
    // Skip any remaining versions of this key.
    while (it.valid() && extract_user_key(it.key()) == user_key) {
      it.next();
    }

    std::optional<std::string> emit_value;
    if (!lr.pending_merges.empty()) {
      auto folded = fold_merges_(user_key, lr);
      if (!folded) return folded.status();
      emit_value = std::move(*folded);
    } else if (lr.state == LookupState::found) {
      emit_value = std::move(lr.value);
    }
    if (emit_value) {
      if (!fn(user_key, *emit_value)) return Status::ok();
    }
  }
  return Status::ok();
}

Status DB::scan_prefix(std::string_view prefix,
                       const std::function<bool(std::string_view,
                                                std::string_view)>& fn,
                       const ReadOptions& ro) {
  // Upper bound: prefix with last byte incremented (prefix of all 0xff
  // bytes degrades to an unbounded scan).
  std::string end{prefix};
  while (!end.empty()) {
    if (static_cast<unsigned char>(end.back()) != 0xff) {
      end.back() = static_cast<char>(end.back() + 1);
      break;
    }
    end.pop_back();
  }
  return scan(prefix, end, fn, ro);
}

Result<std::uint64_t> DB::count_range(std::string_view start,
                                      std::string_view end) {
  std::uint64_t n = 0;
  GEKKO_RETURN_IF_ERROR(scan(start, end, [&](auto, auto) {
    ++n;
    return true;
  }));
  return n;
}

// ---------- management ----------

std::shared_ptr<Snapshot> DB::snapshot() {
  UniqueLock lock(mutex_);
  const std::uint64_t seq = versions_.last_sequence();
  active_snapshots_.insert(seq);
  return std::shared_ptr<Snapshot>(new Snapshot(this, seq));
}

void DB::release_snapshot_(std::uint64_t seq) {
  UniqueLock lock(mutex_);
  auto it = active_snapshots_.find(seq);
  if (it != active_snapshots_.end()) active_snapshots_.erase(it);
}

std::uint64_t DB::oldest_snapshot_locked_() const {
  return active_snapshots_.empty() ? versions_.last_sequence()
                                   : *active_snapshots_.begin();
}

Status DB::flush() {
  UniqueLock lock(mutex_);
  if (background_error_set_) return background_error_;
  if (mem_->empty() && imms_.empty()) return Status::ok();
  if (!mem_->empty()) {
    GEKKO_RETURN_IF_ERROR(switch_memtable_locked_());
  }
  if (!options_.background_compaction) {
    while (!imms_.empty()) {
      GEKKO_RETURN_IF_ERROR(flush_front_(lock, /*unlocked_io=*/false));
    }
    return Status::ok();
  }
  work_cv_.notify_all();
  while (!imms_.empty() || flush_in_progress_) {
    if (background_error_set_) return background_error_;
    done_cv_.wait(lock);
  }
  return Status::ok();
}

Status DB::seal_memtable() {
  UniqueLock lock(mutex_);
  if (background_error_set_) return background_error_;
  if (mem_->empty()) return Status::ok();
  GEKKO_RETURN_IF_ERROR(switch_memtable_locked_());
  work_cv_.notify_one();
  return Status::ok();
}

Status DB::compact_all() {
  GEKKO_RETURN_IF_ERROR(flush());
  UniqueLock lock(mutex_);
  const bool unlocked_io = options_.background_compaction;
  // Compact every populated level downward once (tests use this to
  // squash the whole tree), yielding to in-flight background
  // compactions via the level-busy flags, then settle thresholds.
  for (int level = 0; level < kNumLevels - 1; ++level) {
    for (;;) {
      if (background_error_set_) return background_error_;
      if (level_busy_[level] || level_busy_[level + 1]) {
        done_cv_.wait(lock);
        continue;
      }
      if (versions_.current()->levels[level].empty()) break;
      GEKKO_RETURN_IF_ERROR(compact_level_(level, lock, unlocked_io));
    }
  }
  for (;;) {
    if (background_error_set_) return background_error_;
    const int level = pick_compaction_level_locked_();
    if (level >= 0) {
      GEKKO_RETURN_IF_ERROR(compact_level_(level, lock, unlocked_io));
      continue;
    }
    if (compactions_running_ > 0) {
      done_cv_.wait(lock);
      continue;
    }
    return Status::ok();
  }
}

DbStats DB::stats() const {
  UniqueLock lock(mutex_);
  DbStats s = stats_;
  s.puts = ops_.puts.load(std::memory_order_relaxed);
  s.gets = ops_.gets.load(std::memory_order_relaxed);
  s.deletes = ops_.deletes.load(std::memory_order_relaxed);
  s.merges = ops_.merges.load(std::memory_order_relaxed);
  s.merge_operands_folded =
      ops_.merge_operands_folded.load(std::memory_order_relaxed);
  s.stall_slowdowns = ops_.stall_slowdowns.load(std::memory_order_relaxed);
  s.stall_slowdown_ms =
      ops_.stall_slowdown_us.load(std::memory_order_relaxed) / 1000;
  s.compactions_running = static_cast<std::uint64_t>(compactions_running_);
  s.immutable_memtables = imms_.size();
  auto version = versions_.current();
  for (int level = 0; level < kNumLevels; ++level) {
    s.level_files[level] = version->levels[level].size();
    s.level_bytes[level] = version->level_bytes(level);
  }
  s.memtable_bytes = mem_->approximate_bytes();
  return s;
}

}  // namespace gekko::kv

// LSM KV store tests: write batch, WAL (incl. torn-tail recovery),
// bloom filters, blocks, SSTables, the skiplist/memtable, and the DB
// facade (merges, snapshots, scans, compaction, crash-reopen, and a
// model-based randomized test against std::map).
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <map>
#include <optional>
#include <set>
#include <thread>
#include <vector>

#include "common/fileio.h"
#include "common/lockdep.h"
#include "common/rng.h"
#include "kv/bloom.h"
#include "kv/block.h"
#include "kv/db.h"
#include "kv/internal_key.h"
#include "kv/memtable.h"
#include "kv/merge.h"
#include "kv/skiplist.h"
#include "kv/sstable.h"
#include "kv/wal.h"
#include "kv/write_batch.h"

namespace gekko::kv {
namespace {

// The whole suite runs with the runtime lock-order validator on, so
// any DB-internal ordering regression aborts the offending test.
const bool kLockdepOn = [] {
  lockdep::set_enabled(true);
  return true;
}();

std::filesystem::path fresh_dir(const char* tag) {
  auto dir = std::filesystem::temp_directory_path() /
             (std::string("gekko_kv_") + tag + "_" +
              std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

// ---------- internal key ----------

TEST(InternalKeyTest, OrderingNewestFirst) {
  const std::string a1 = make_internal_key("a", 10, ValueType::value);
  const std::string a2 = make_internal_key("a", 5, ValueType::value);
  const std::string b = make_internal_key("b", 1, ValueType::value);
  EXPECT_LT(compare_internal(a1, a2), 0);  // higher seq sorts first
  EXPECT_LT(compare_internal(a2, b), 0);   // user key dominates
  EXPECT_EQ(compare_internal(a1, a1), 0);
}

TEST(InternalKeyTest, TrailerRoundTrip) {
  const std::string k = make_internal_key("/x/y", 12345, ValueType::merge);
  EXPECT_EQ(extract_user_key(k), "/x/y");
  const auto trailer = extract_trailer(k);
  EXPECT_EQ(trailer_sequence(trailer), 12345u);
  EXPECT_EQ(trailer_type(trailer), ValueType::merge);
}

TEST(InternalKeyTest, LookupKeyIsUpperBoundForSnapshot) {
  // lookup(u, s) must sort <= every version of u with seq <= s and
  // > every version with seq > s.
  const std::string lookup = make_lookup_key("k", 10);
  EXPECT_LE(compare_internal(lookup,
                             make_internal_key("k", 10, ValueType::value)),
            0);
  EXPECT_GT(compare_internal(lookup,
                             make_internal_key("k", 11, ValueType::value)),
            0);
}

// ---------- write batch ----------

TEST(WriteBatchTest, RoundTripAllOps) {
  WriteBatch batch;
  batch.put("k1", "v1");
  batch.erase("k2");
  batch.merge("k3", "operand");
  EXPECT_EQ(batch.count(), 3u);

  std::vector<std::tuple<ValueType, std::string, std::string>> ops;
  ASSERT_TRUE(batch
                  .for_each([&](ValueType t, std::string_view k,
                                std::string_view v) {
                    ops.emplace_back(t, std::string(k), std::string(v));
                  })
                  .is_ok());
  ASSERT_EQ(ops.size(), 3u);
  EXPECT_EQ(ops[0], std::make_tuple(ValueType::value, std::string("k1"),
                                    std::string("v1")));
  EXPECT_EQ(std::get<0>(ops[1]), ValueType::deletion);
  EXPECT_EQ(std::get<0>(ops[2]), ValueType::merge);
}

TEST(WriteBatchTest, SerializeDeserialize) {
  WriteBatch batch;
  batch.put("a", std::string(1000, 'x'));
  batch.erase("b");
  const auto& bytes = batch.data();
  auto parsed = WriteBatch::from_bytes(
      std::string_view(reinterpret_cast<const char*>(bytes.data()),
                       bytes.size()));
  ASSERT_TRUE(parsed.is_ok());
  EXPECT_EQ(parsed->count(), 2u);
}

TEST(WriteBatchTest, RejectsGarbage) {
  EXPECT_EQ(WriteBatch::from_bytes("\xff\x01garbage").code(),
            Errc::corruption);
}

// ---------- WAL ----------

TEST(WalTest, AppendRecoverRoundTrip) {
  const auto dir = fresh_dir("wal");
  const auto path = dir / "test.log";
  {
    auto w = WalWriter::create(path);
    ASSERT_TRUE(w.is_ok());
    ASSERT_TRUE(w->append(1, "first", false).is_ok());
    ASSERT_TRUE(w->append(2, "second record", true).is_ok());
    ASSERT_TRUE(w->close().is_ok());
  }
  std::vector<std::pair<SequenceNumber, std::string>> records;
  auto stats = wal_recover(path, [&](SequenceNumber seq,
                                     std::string_view bytes) {
    records.emplace_back(seq, std::string(bytes));
    return Status::ok();
  });
  ASSERT_TRUE(stats.is_ok());
  EXPECT_EQ(stats->records_applied, 2u);
  EXPECT_FALSE(stats->tail_corruption);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0], (std::pair<SequenceNumber, std::string>{1, "first"}));
  EXPECT_EQ(records[1].second, "second record");
  std::filesystem::remove_all(dir);
}

TEST(WalTest, MissingFileIsFreshDb) {
  auto stats = wal_recover("/nonexistent/dir/w.log",
                           [](auto, auto) { return Status::ok(); });
  ASSERT_TRUE(stats.is_ok());
  EXPECT_EQ(stats->records_applied, 0u);
}

TEST(WalTest, TornTailDiscardedIntactPrefixKept) {
  const auto dir = fresh_dir("waltear");
  const auto path = dir / "torn.log";
  {
    auto w = WalWriter::create(path);
    ASSERT_TRUE(w->append(1, "keep me", false).is_ok());
    ASSERT_TRUE(w->append(2, "also keep", false).is_ok());
    ASSERT_TRUE(w->close().is_ok());
  }
  // Tear: chop off the last 4 bytes (partial record payload).
  const auto size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, size - 4);

  std::vector<SequenceNumber> seqs;
  auto stats = wal_recover(path, [&](SequenceNumber s, std::string_view) {
    seqs.push_back(s);
    return Status::ok();
  });
  ASSERT_TRUE(stats.is_ok());
  EXPECT_EQ(seqs, std::vector<SequenceNumber>{1});
  EXPECT_TRUE(stats->tail_corruption);
  std::filesystem::remove_all(dir);
}

TEST(WalTest, BitFlipDetectedByCrc) {
  const auto dir = fresh_dir("walflip");
  const auto path = dir / "flip.log";
  {
    auto w = WalWriter::create(path);
    ASSERT_TRUE(w->append(1, "payload-payload-payload", false).is_ok());
    ASSERT_TRUE(w->close().is_ok());
  }
  // Flip a payload byte.
  auto content = io::read_file(path);
  ASSERT_TRUE(content.is_ok());
  (*content)[20] ^= 0x40;
  ASSERT_TRUE(io::write_file_atomic(path, *content).is_ok());

  std::uint64_t applied = 0;
  auto stats = wal_recover(path, [&](auto, auto) {
    ++applied;
    return Status::ok();
  });
  ASSERT_TRUE(stats.is_ok());
  EXPECT_EQ(applied, 0u);
  EXPECT_TRUE(stats->tail_corruption);
  std::filesystem::remove_all(dir);
}

TEST(WalTest, OversizedLengthFieldIsTailCorruptionNotAllocation) {
  const auto dir = fresh_dir("walhuge");
  const auto path = dir / "huge.log";
  {
    auto w = WalWriter::create(path);
    ASSERT_TRUE(w->append(1, "good record", false).is_ok());
    ASSERT_TRUE(w->close().is_ok());
  }
  // Append a forged header whose length field claims ~4 GiB and pad the
  // file so `offset + len > size` alone wouldn't catch a wrapped sum.
  // Recovery must stop at the cap, not attempt the allocation.
  auto content = io::read_file(path);
  ASSERT_TRUE(content.is_ok());
  std::string forged(16, '\0');
  const std::uint32_t fake_len = 0xfffffff0u;
  std::memcpy(forged.data() + 4, &fake_len, 4);
  content->append(forged);
  ASSERT_TRUE(io::write_file_atomic(path, *content).is_ok());

  std::uint64_t applied = 0;
  auto stats = wal_recover(path, [&](auto, auto) {
    ++applied;
    return Status::ok();
  });
  ASSERT_TRUE(stats.is_ok());
  EXPECT_EQ(applied, 1u);  // the intact prefix survives
  EXPECT_TRUE(stats->tail_corruption);
  std::filesystem::remove_all(dir);
}

TEST(WalTest, LengthAtCapBoundaryIsCorruptionBeyondCap) {
  const auto dir = fresh_dir("walcap");
  const auto path = dir / "cap.log";
  // A bare header claiming exactly cap+1 bytes, no payload behind it.
  std::string forged(16, '\0');
  const std::uint32_t fake_len = kMaxWalRecordBytes + 1;
  std::memcpy(forged.data() + 4, &fake_len, 4);
  ASSERT_TRUE(io::write_file_atomic(path, forged).is_ok());

  auto stats = wal_recover(path, [](auto, auto) { return Status::ok(); });
  ASSERT_TRUE(stats.is_ok());
  EXPECT_EQ(stats->records_applied, 0u);
  EXPECT_TRUE(stats->tail_corruption);
  std::filesystem::remove_all(dir);
}

// ---------- bloom ----------

TEST(BloomTest, NoFalseNegatives) {
  BloomFilterBuilder builder(10);
  for (int i = 0; i < 2000; ++i) {
    builder.add("/key/" + std::to_string(i));
  }
  const std::string filter = builder.finish();
  for (int i = 0; i < 2000; ++i) {
    EXPECT_TRUE(bloom_may_contain(filter, "/key/" + std::to_string(i)));
  }
}

TEST(BloomTest, LowFalsePositiveRate) {
  BloomFilterBuilder builder(10);
  for (int i = 0; i < 2000; ++i) builder.add("/key/" + std::to_string(i));
  const std::string filter = builder.finish();
  int fp = 0;
  constexpr int kProbes = 10000;
  for (int i = 0; i < kProbes; ++i) {
    if (bloom_may_contain(filter, "/absent/" + std::to_string(i))) ++fp;
  }
  // 10 bits/key => ~1% theoretical; allow generous slack.
  EXPECT_LT(fp, kProbes / 25);
}

TEST(BloomTest, EmptyFilterAdmitsEverything) {
  EXPECT_TRUE(bloom_may_contain("", "anything"));
  BloomFilterBuilder builder(10);
  EXPECT_EQ(builder.finish(), "");
}

// ---------- block ----------

TEST(BlockTest, BuildAndIterate) {
  BlockBuilder builder(4);
  std::vector<std::string> keys;
  for (int i = 0; i < 100; ++i) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "/common/prefix/%04d", i);
    keys.push_back(make_internal_key(buf, 1, ValueType::value));
  }
  for (const auto& k : keys) {
    builder.add(k, "value-" + std::string(extract_user_key(k)));
  }
  const std::string block = builder.finish();

  BlockIterator it(block);
  it.seek_to_first();
  std::size_t n = 0;
  for (; it.valid(); it.next()) {
    EXPECT_EQ(it.key(), keys[n]);
    ++n;
  }
  EXPECT_EQ(n, keys.size());
  EXPECT_TRUE(it.status().is_ok());
}

TEST(BlockTest, SeekFindsExactAndSuccessor) {
  BlockBuilder builder(4);
  for (int i = 0; i < 50; i += 2) {  // even keys only
    char buf[16];
    std::snprintf(buf, sizeof(buf), "k%04d", i);
    builder.add(make_internal_key(buf, 1, ValueType::value), "v");
  }
  const std::string block = builder.finish();
  BlockIterator it(block);

  it.seek(make_lookup_key("k0010", kMaxSequence));
  ASSERT_TRUE(it.valid());
  EXPECT_EQ(extract_user_key(it.key()), "k0010");

  it.seek(make_lookup_key("k0011", kMaxSequence));  // odd: absent
  ASSERT_TRUE(it.valid());
  EXPECT_EQ(extract_user_key(it.key()), "k0012");

  it.seek(make_lookup_key("k9999", kMaxSequence));  // past the end
  EXPECT_FALSE(it.valid());
}

TEST(BlockTest, CorruptBlockReportsStatus) {
  BlockIterator it("xy");  // smaller than the restart footer
  it.seek_to_first();
  EXPECT_FALSE(it.valid());
  EXPECT_EQ(it.status().code(), Errc::corruption);
}

// ---------- sstable ----------

class SstableTest : public ::testing::Test {
 protected:
  void SetUp() override { dir_ = fresh_dir("sst"); }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::shared_ptr<Table> build(
      const std::vector<std::pair<std::string, std::string>>& internal_kvs) {
    const auto path = dir_ / "t.sst";
    auto file = io::WritableFile::create(path);
    EXPECT_TRUE(file.is_ok());
    TableBuilder builder(options_, std::move(*file));
    for (const auto& [k, v] : internal_kvs) {
      EXPECT_TRUE(builder.add(k, v).is_ok());
    }
    auto meta = builder.finish();
    EXPECT_TRUE(meta.is_ok());
    auto table = Table::open(path, options_);
    EXPECT_TRUE(table.is_ok());
    return *table;
  }

  std::filesystem::path dir_;
  Options options_;
};

TEST_F(SstableTest, PointLookupAcrossBlocks) {
  std::vector<std::pair<std::string, std::string>> kvs;
  for (int i = 0; i < 5000; ++i) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "/f/%06d", i);
    kvs.emplace_back(make_internal_key(buf, 7, ValueType::value),
                     "payload-" + std::to_string(i));
  }
  auto table = build(kvs);

  for (int i : {0, 1, 999, 2500, 4999}) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "/f/%06d", i);
    LookupResult lr;
    ASSERT_TRUE(table->get(buf, kMaxSequence, &lr).is_ok());
    EXPECT_EQ(lr.state, LookupState::found) << buf;
    EXPECT_EQ(lr.value, "payload-" + std::to_string(i));
  }
  LookupResult miss;
  ASSERT_TRUE(table->get("/f/999999x", kMaxSequence, &miss).is_ok());
  EXPECT_EQ(miss.state, LookupState::not_present);
}

TEST_F(SstableTest, SnapshotVisibility) {
  std::vector<std::pair<std::string, std::string>> kvs;
  // Newest first within the same user key (internal-key order).
  kvs.emplace_back(make_internal_key("k", 30, ValueType::value), "v30");
  kvs.emplace_back(make_internal_key("k", 20, ValueType::deletion), "");
  kvs.emplace_back(make_internal_key("k", 10, ValueType::value), "v10");
  auto table = build(kvs);

  LookupResult at35;
  ASSERT_TRUE(table->get("k", 35, &at35).is_ok());
  EXPECT_EQ(at35.state, LookupState::found);
  EXPECT_EQ(at35.value, "v30");

  LookupResult at25;
  ASSERT_TRUE(table->get("k", 25, &at25).is_ok());
  EXPECT_EQ(at25.state, LookupState::deleted);

  LookupResult at15;
  ASSERT_TRUE(table->get("k", 15, &at15).is_ok());
  EXPECT_EQ(at15.state, LookupState::found);
  EXPECT_EQ(at15.value, "v10");
}

TEST_F(SstableTest, IteratorFullScanInOrder) {
  std::vector<std::pair<std::string, std::string>> kvs;
  for (int i = 0; i < 3000; ++i) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "/g/%05d", i);
    kvs.emplace_back(make_internal_key(buf, 1, ValueType::value), "v");
  }
  auto table = build(kvs);
  Table::Iterator it(table);
  std::size_t n = 0;
  std::string prev;
  for (it.seek_to_first(); it.valid(); it.next()) {
    if (!prev.empty()) {
      EXPECT_LT(compare_internal(prev, it.key()), 0);
    }
    prev = std::string(it.key());
    ++n;
  }
  EXPECT_EQ(n, kvs.size());
}

TEST_F(SstableTest, MetaRecordsBounds) {
  const auto path = dir_ / "b.sst";
  auto file = io::WritableFile::create(path);
  TableBuilder builder(options_, std::move(*file));
  const auto first = make_internal_key("aaa", 5, ValueType::value);
  const auto last = make_internal_key("zzz", 9, ValueType::value);
  ASSERT_TRUE(builder.add(first, "1").is_ok());
  ASSERT_TRUE(builder.add(last, "2").is_ok());
  auto meta = builder.finish();
  ASSERT_TRUE(meta.is_ok());
  EXPECT_EQ(meta->smallest, first);
  EXPECT_EQ(meta->largest, last);
  EXPECT_EQ(meta->entry_count, 2u);
}

TEST_F(SstableTest, CorruptedBlockDetected) {
  std::vector<std::pair<std::string, std::string>> kvs;
  for (int i = 0; i < 100; ++i) {
    kvs.emplace_back(make_internal_key("k" + std::to_string(i), 1,
                                       ValueType::value),
                     std::string(100, 'v'));
  }
  (void)build(kvs);
  // Flip a byte in the first data block.
  const auto path = dir_ / "t.sst";
  auto content = io::read_file(path);
  ASSERT_TRUE(content.is_ok());
  (*content)[10] ^= 0x01;
  ASSERT_TRUE(io::write_file_atomic(path, *content).is_ok());

  auto table = Table::open(path, options_);
  ASSERT_TRUE(table.is_ok());  // footer/index still intact
  LookupResult lr;
  EXPECT_EQ((*table)->get("k0", kMaxSequence, &lr).code(),
            Errc::corruption);
}

// ---------- skiplist / memtable ----------

TEST(SkipListTest, SortedInsertAndSeek) {
  SkipList list;
  Xoshiro256 rng(3);
  std::set<std::string> inserted;
  for (int i = 0; i < 2000; ++i) {
    const auto key = make_internal_key(
        "k" + std::to_string(rng.below(1000000)), i + 1, ValueType::value);
    if (inserted.insert(key).second) {
      list.insert(key, "v");
    }
  }
  SkipList::Iterator it(&list);
  std::string prev;
  std::size_t n = 0;
  for (it.seek_to_first(); it.valid(); it.next()) {
    if (!prev.empty()) EXPECT_LT(compare_internal(prev, it.key()), 0);
    prev = std::string(it.key());
    ++n;
  }
  EXPECT_EQ(n, inserted.size());
}

TEST(MemTableTest, VisibilityRules) {
  MemTable mem;
  mem.add(1, ValueType::value, "k", "v1");
  mem.add(2, ValueType::deletion, "k", "");
  mem.add(3, ValueType::value, "k", "v3");

  LookupResult at3;
  mem.get("k", 3, &at3);
  EXPECT_EQ(at3.state, LookupState::found);
  EXPECT_EQ(at3.value, "v3");

  LookupResult at2;
  mem.get("k", 2, &at2);
  EXPECT_EQ(at2.state, LookupState::deleted);

  LookupResult at1;
  mem.get("k", 1, &at1);
  EXPECT_EQ(at1.state, LookupState::found);
  EXPECT_EQ(at1.value, "v1");
}

TEST(MemTableTest, MergeOperandsAccumulateNewestFirst) {
  MemTable mem;
  mem.add(1, ValueType::value, "k", "base");
  mem.add(2, ValueType::merge, "k", "m1");
  mem.add(3, ValueType::merge, "k", "m2");

  LookupResult lr;
  mem.get("k", kMaxSequence, &lr);
  EXPECT_EQ(lr.state, LookupState::found);
  EXPECT_EQ(lr.value, "base");
  ASSERT_EQ(lr.pending_merges.size(), 2u);
  EXPECT_EQ(lr.pending_merges[0], "m2");  // newest first
  EXPECT_EQ(lr.pending_merges[1], "m1");
}

TEST(MemTableTest, ChainTopFollowsAddsAfterFirstWalk) {
  MemTable mem;
  SequenceNumber seq = 1;
  EXPECT_EQ(mem.chain_top("k", 3).base, LookupState::not_present);
  mem.add(seq++, ValueType::value, "k", "base");
  mem.add(seq++, ValueType::merge, "k", "m1");
  auto top = mem.chain_top("k", 3);  // cached from here on
  EXPECT_EQ(top.operands, 1u);
  EXPECT_EQ(top.base, LookupState::found);
  mem.add(seq++, ValueType::merge, "k", "m2");
  mem.add(seq++, ValueType::merge, "other", "x");
  EXPECT_EQ(mem.chain_top("k", 3).operands, 2u);
  mem.add(seq++, ValueType::deletion, "k", "");
  mem.add(seq++, ValueType::merge, "k", "m3");
  top = mem.chain_top("k", 3);
  EXPECT_EQ(top.operands, 1u);
  EXPECT_EQ(top.base, LookupState::deleted);
  mem.add(seq++, ValueType::value, "k", "again");
  top = mem.chain_top("k", 3);
  EXPECT_EQ(top.operands, 0u);
  EXPECT_EQ(top.base, LookupState::found);

  // The first walk of a key stops after max_operands operands.
  for (int i = 0; i < 5; ++i) mem.add(seq++, ValueType::merge, "deep", "m");
  top = mem.chain_top("deep", 3);
  EXPECT_EQ(top.operands, 3u);
  EXPECT_EQ(top.base, LookupState::not_present);
}

// ---------- DB facade ----------

class DbTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fresh_dir("db");
    open_db();
  }
  void TearDown() override {
    db_.reset();
    std::filesystem::remove_all(dir_);
  }

  void open_db(std::optional<Options> opts = std::nullopt) {
    db_.reset();
    Options o = opts.value_or(default_options());
    auto db = DB::open(dir_ / "db", std::move(o));
    ASSERT_TRUE(db.is_ok()) << db.status().to_string();
    db_ = std::move(*db);
  }

  static Options default_options() {
    Options o;
    o.memtable_budget = 32 * 1024;  // tiny => frequent flushes
    o.l0_compaction_trigger = 3;
    o.l1_max_bytes = 128 * 1024;
    o.target_sst_size = 64 * 1024;
    o.background_compaction = false;  // deterministic tests
    o.merge_operator = std::make_shared<AppendMergeOperator>();
    return o;
  }

  std::filesystem::path dir_;
  std::unique_ptr<DB> db_;
};

TEST_F(DbTest, PutGetDelete) {
  ASSERT_TRUE(db_->put("a", "1").is_ok());
  EXPECT_EQ(*db_->get("a"), "1");
  ASSERT_TRUE(db_->put("a", "2").is_ok());
  EXPECT_EQ(*db_->get("a"), "2");
  ASSERT_TRUE(db_->erase("a").is_ok());
  EXPECT_EQ(db_->get("a").code(), Errc::not_found);
}

TEST_F(DbTest, InsertIsCreateSemantics) {
  EXPECT_TRUE(db_->insert("/file", "md").is_ok());
  EXPECT_EQ(db_->insert("/file", "md2").code(), Errc::exists);
  EXPECT_TRUE(db_->remove_existing("/file").is_ok());
  EXPECT_EQ(db_->remove_existing("/file").code(), Errc::not_found);
  // Insert works again after removal.
  EXPECT_TRUE(db_->insert("/file", "md3").is_ok());
  EXPECT_EQ(*db_->get("/file"), "md3");
}

TEST_F(DbTest, MergeFoldsInOrder) {
  ASSERT_TRUE(db_->merge("k", "a").is_ok());  // no base: a
  ASSERT_TRUE(db_->merge("k", "b").is_ok());
  ASSERT_TRUE(db_->merge("k", "c").is_ok());
  EXPECT_EQ(*db_->get("k"), "a,b,c");
  ASSERT_TRUE(db_->put("k", "base").is_ok());
  ASSERT_TRUE(db_->merge("k", "z").is_ok());
  EXPECT_EQ(*db_->get("k"), "base,z");
}

TEST_F(DbTest, SurvivesFlushAndCompaction) {
  for (int i = 0; i < 3000; ++i) {
    ASSERT_TRUE(db_->put("/k/" + std::to_string(i),
                         "value-" + std::to_string(i))
                    .is_ok());
  }
  ASSERT_TRUE(db_->flush().is_ok());
  ASSERT_TRUE(db_->compact_all().is_ok());
  for (int i : {0, 1, 1500, 2999}) {
    EXPECT_EQ(*db_->get("/k/" + std::to_string(i)),
              "value-" + std::to_string(i));
  }
  const auto stats = db_->stats();
  EXPECT_GT(stats.flushes, 0u);
  EXPECT_GT(stats.compactions, 0u);
}

TEST_F(DbTest, DeletionsSurviveCompaction) {
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(db_->put("/k/" + std::to_string(i), "v").is_ok());
  }
  for (int i = 0; i < 1000; i += 2) {
    ASSERT_TRUE(db_->erase("/k/" + std::to_string(i)).is_ok());
  }
  ASSERT_TRUE(db_->compact_all().is_ok());
  for (int i = 0; i < 1000; ++i) {
    auto r = db_->get("/k/" + std::to_string(i));
    if (i % 2 == 0) {
      EXPECT_EQ(r.code(), Errc::not_found) << i;
    } else {
      ASSERT_TRUE(r.is_ok()) << i;
    }
  }
}

TEST_F(DbTest, ReopenRecoversFromWal) {
  ASSERT_TRUE(db_->put("persist", "me").is_ok());
  ASSERT_TRUE(db_->merge("m", "x").is_ok());
  open_db();  // destructor flushes; reopen reads back
  EXPECT_EQ(*db_->get("persist"), "me");
  EXPECT_EQ(*db_->get("m"), "x");
}

TEST_F(DbTest, DirtyRestartSurfacesWalRecoveryStats) {
  // Clean reopen first: no WAL replay, both counters must stay zero.
  open_db();
  EXPECT_EQ(db_->stats().wal_recovered_records, 0u);
  EXPECT_EQ(db_->stats().wal_tail_corruptions, 0u);

  // Simulate a crash: plant a WAL the daemon never got to flush — one
  // intact batch followed by a torn partial header — then reopen.
  db_.reset();
  const auto wal_path = dir_ / "db" / "wal-99999999.log";
  {
    auto w = WalWriter::create(wal_path);
    ASSERT_TRUE(w.is_ok());
    WriteBatch batch;
    batch.put("crashed-key", "survived");
    const auto& bytes = batch.data();
    ASSERT_TRUE(w->append(1000000,
                          std::string_view(
                              reinterpret_cast<const char*>(bytes.data()),
                              bytes.size()),
                          true)
                    .is_ok());
    ASSERT_TRUE(w->close().is_ok());
  }
  {
    auto f = io::read_file(wal_path);
    ASSERT_TRUE(f.is_ok());
    f->append("\x07torn");  // partial next header
    ASSERT_TRUE(io::write_file_atomic(wal_path, *f).is_ok());
  }
  open_db();
  const auto stats = db_->stats();
  EXPECT_EQ(stats.wal_recovered_records, 1u);
  EXPECT_EQ(stats.wal_tail_corruptions, 1u);
  EXPECT_EQ(*db_->get("crashed-key"), "survived");
}

TEST_F(DbTest, ReopenAfterManyWritesAndCompactions) {
  for (int i = 0; i < 5000; ++i) {
    ASSERT_TRUE(db_->put("/p/" + std::to_string(i % 500),
                         "gen-" + std::to_string(i))
                    .is_ok());
  }
  open_db();
  for (int k = 0; k < 500; ++k) {
    auto r = db_->get("/p/" + std::to_string(k));
    ASSERT_TRUE(r.is_ok()) << k;
    // Last generation for key k is the largest i with i % 500 == k.
    EXPECT_EQ(*r, "gen-" + std::to_string(4500 + k));
  }
}

TEST_F(DbTest, ScanRangeAndPrefix) {
  for (const char* k : {"/a/1", "/a/2", "/ab", "/b/1", "/b/2"}) {
    ASSERT_TRUE(db_->put(k, k).is_ok());
  }
  std::vector<std::string> seen;
  ASSERT_TRUE(db_->scan("/a/", "/a0", [&](auto k, auto) {
                    seen.emplace_back(k);
                    return true;
                  })
                  .is_ok());
  EXPECT_EQ(seen, (std::vector<std::string>{"/a/1", "/a/2"}));

  seen.clear();
  ASSERT_TRUE(db_->scan_prefix("/b/", [&](auto k, auto) {
                    seen.emplace_back(k);
                    return true;
                  })
                  .is_ok());
  EXPECT_EQ(seen, (std::vector<std::string>{"/b/1", "/b/2"}));

  EXPECT_EQ(*db_->count_range("", ""), 5u);
}

TEST_F(DbTest, ScanSeesThroughAllLsmLevels) {
  // Spread the same keyspace across SSTs and the memtable.
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE(db_->put("/s/" + std::to_string(1000 + i), "old").is_ok());
  }
  ASSERT_TRUE(db_->compact_all().is_ok());
  for (int i = 0; i < 2000; i += 3) {
    ASSERT_TRUE(db_->put("/s/" + std::to_string(1000 + i), "new").is_ok());
  }
  for (int i = 0; i < 2000; i += 7) {
    ASSERT_TRUE(db_->erase("/s/" + std::to_string(1000 + i)).is_ok());
  }
  std::map<std::string, std::string> scanned;
  ASSERT_TRUE(db_->scan_prefix("/s/", [&](auto k, auto v) {
                    scanned.emplace(k, v);
                    return true;
                  })
                  .is_ok());
  std::size_t expected = 0;
  for (int i = 0; i < 2000; ++i) {
    if (i % 7 == 0) continue;
    ++expected;
    const std::string key = "/s/" + std::to_string(1000 + i);
    ASSERT_TRUE(scanned.contains(key)) << key;
    EXPECT_EQ(scanned[key], i % 3 == 0 ? "new" : "old");
  }
  EXPECT_EQ(scanned.size(), expected);
}

TEST_F(DbTest, SnapshotIsolation) {
  ASSERT_TRUE(db_->put("k", "v1").is_ok());
  auto snap = db_->snapshot();
  ASSERT_TRUE(db_->put("k", "v2").is_ok());
  ASSERT_TRUE(db_->put("new", "x").is_ok());

  ReadOptions at_snap;
  at_snap.snapshot_seq = snap->sequence();
  EXPECT_EQ(*db_->get("k", at_snap), "v1");
  EXPECT_EQ(db_->get("new", at_snap).code(), Errc::not_found);
  EXPECT_EQ(*db_->get("k"), "v2");
}

TEST_F(DbTest, SnapshotSurvivesFlush) {
  ASSERT_TRUE(db_->put("k", "old").is_ok());
  auto snap = db_->snapshot();
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE(db_->put("/fill/" + std::to_string(i),
                         std::string(64, 'x'))
                    .is_ok());
  }
  ASSERT_TRUE(db_->put("k", "new").is_ok());
  ASSERT_TRUE(db_->flush().is_ok());
  ReadOptions ro;
  ro.snapshot_seq = snap->sequence();
  EXPECT_EQ(*db_->get("k", ro), "old");
}

TEST_F(DbTest, WriteBatchIsAtomicAcrossKeys) {
  WriteBatch batch;
  batch.put("x", "1");
  batch.put("y", "2");
  batch.erase("z");
  ASSERT_TRUE(db_->put("z", "pre").is_ok());
  ASSERT_TRUE(db_->write(batch).is_ok());
  EXPECT_EQ(*db_->get("x"), "1");
  EXPECT_EQ(*db_->get("y"), "2");
  EXPECT_EQ(db_->get("z").code(), Errc::not_found);
}

TEST_F(DbTest, U64MaxMergeOperator) {
  Options o = default_options();
  o.merge_operator = std::make_shared<U64MaxMergeOperator>();
  open_db(o);
  ASSERT_TRUE(db_->merge("size", U64MaxMergeOperator::encode(100)).is_ok());
  ASSERT_TRUE(db_->merge("size", U64MaxMergeOperator::encode(50)).is_ok());
  ASSERT_TRUE(db_->merge("size", U64MaxMergeOperator::encode(200)).is_ok());
  EXPECT_EQ(U64MaxMergeOperator::decode(*db_->get("size")), 200u);
}

TEST_F(DbTest, BackgroundCompactionMode) {
  Options o = default_options();
  o.background_compaction = true;
  open_db(o);
  for (int i = 0; i < 4000; ++i) {
    ASSERT_TRUE(
        db_->put("/bg/" + std::to_string(i), std::string(32, 'b')).is_ok());
  }
  for (int i : {0, 1999, 3999}) {
    EXPECT_TRUE(db_->get("/bg/" + std::to_string(i)).is_ok()) << i;
  }
  open_db(o);  // clean shutdown with background thread + reopen
  EXPECT_EQ(*db_->count_range("/bg/", "/bg0"), 4000u);
}

// Regression for the op-counter data race found by this PR's
// annotation pass: puts/gets/deletes were bumped on plain DbStats
// fields OUTSIDE mutex_ while stats() read them under it — concurrent
// writers lost increments and raced with the reader. The counters are
// relaxed atomics now, so the totals must come out exact.
TEST_F(DbTest, StatsOpCountersExactUnderConcurrency) {
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 250;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        const std::string key =
            "/race/" + std::to_string(t) + "/" + std::to_string(i);
        ASSERT_TRUE(db_->put(key, "v").is_ok());
        EXPECT_TRUE(db_->get(key).is_ok());
        (void)db_->stats();  // concurrent reader: raced with ++ pre-fix
      }
    });
  }
  for (auto& w : workers) w.join();
  const DbStats s = db_->stats();
  EXPECT_EQ(s.puts, static_cast<std::uint64_t>(kThreads) * kOpsPerThread);
  EXPECT_EQ(s.gets, static_cast<std::uint64_t>(kThreads) * kOpsPerThread);
}

// Model-based randomized test: the DB must agree with std::map under a
// random op sequence with interleaved flushes/compactions/reopens.
class DbModelTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DbModelTest, AgreesWithStdMap) {
  const auto dir = fresh_dir(("model" + std::to_string(GetParam())).c_str());
  Options o;
  o.memtable_budget = 16 * 1024;
  o.l0_compaction_trigger = 3;
  o.l1_max_bytes = 64 * 1024;
  o.target_sst_size = 32 * 1024;
  o.background_compaction = false;
  o.merge_operator = std::make_shared<AppendMergeOperator>();

  auto db = std::move(*DB::open(dir / "db", o));
  std::map<std::string, std::string> model;
  Xoshiro256 rng(GetParam());

  for (int step = 0; step < 4000; ++step) {
    const std::string key = "/m/" + std::to_string(rng.below(200));
    switch (rng.below(100)) {
      default: {  // 0-49: put
        const std::string value = "v" + std::to_string(step);
        ASSERT_TRUE(db->put(key, value).is_ok());
        model[key] = value;
        break;
      }
      case 50 ... 69: {  // erase
        ASSERT_TRUE(db->erase(key).is_ok());
        model.erase(key);
        break;
      }
      case 70 ... 89: {  // merge (append semantics)
        const std::string operand = "m" + std::to_string(step);
        ASSERT_TRUE(db->merge(key, operand).is_ok());
        auto it = model.find(key);
        if (it == model.end() || it->second.empty()) {
          model[key] = operand;
        } else {
          it->second += "," + operand;
        }
        break;
      }
      case 90 ... 93:
        ASSERT_TRUE(db->flush().is_ok());
        break;
      case 94 ... 95:
        ASSERT_TRUE(db->compact_all().is_ok());
        break;
      case 96 ... 97: {  // reopen
        db.reset();
        db = std::move(*DB::open(dir / "db", o));
        break;
      }
      case 98 ... 99: {  // full scan comparison
        std::map<std::string, std::string> scanned;
        ASSERT_TRUE(db->scan_prefix("/m/", [&](auto k, auto v) {
                        scanned.emplace(k, v);
                        return true;
                      })
                        .is_ok());
        ASSERT_EQ(scanned, model) << "step " << step;
        break;
      }
    }
    // Spot-check a random key every step.
    const std::string probe = "/m/" + std::to_string(rng.below(200));
    auto got = db->get(probe);
    auto want = model.find(probe);
    if (want == model.end()) {
      EXPECT_EQ(got.code(), Errc::not_found) << "step " << step << " " << probe;
    } else {
      ASSERT_TRUE(got.is_ok()) << "step " << step << " " << probe;
      EXPECT_EQ(*got, want->second) << "step " << step << " " << probe;
    }
  }
  db.reset();
  std::filesystem::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DbModelTest,
                         ::testing::Values(1ULL, 42ULL, 0xdeadULL));

// ---------- write stalls vs background compaction ----------

// A sustained put storm worth many memtable budgets. With background
// compaction the soft-slowdown throttle must pace writers well enough
// that no writer ever hard-blocks on the pipeline; inline mode pays
// exactly one hard stop per memtable switch.
TEST_F(DbTest, WriteHeavyNoHardStallsWithBackgroundCompaction) {
  Options o = default_options();
  o.background_compaction = true;
  o.compaction_threads = 2;
  open_db(o);
  const std::string value(100, 'v');  // ~25 memtable budgets in total
  for (int i = 0; i < 8000; ++i) {
    ASSERT_TRUE(db_->put("/stall/" + std::to_string(i), value).is_ok());
  }
  const auto stats = db_->stats();
  EXPECT_GE(stats.flushes, 3u);
  EXPECT_EQ(stats.stall_stops, 0u);
  EXPECT_EQ(stats.stall_foreground_ms, 0u);
  // Settle the pipeline and verify nothing was lost under concurrency.
  ASSERT_TRUE(db_->flush().is_ok());
  for (int i : {0, 1, 4000, 7999}) {
    EXPECT_EQ(*db_->get("/stall/" + std::to_string(i)), value) << i;
  }
}

TEST_F(DbTest, InlineModeCountsOneHardStopPerMemtableSwitch) {
  // default_options(): background_compaction = false.
  const std::string value(100, 'v');
  for (int i = 0; i < 8000; ++i) {
    ASSERT_TRUE(db_->put("/stall/" + std::to_string(i), value).is_ok());
  }
  const auto stats = db_->stats();
  EXPECT_GE(stats.flushes, 3u);
  EXPECT_EQ(stats.stall_stops, stats.flushes);
  EXPECT_EQ(stats.stall_slowdowns, 0u);  // throttle is bg-mode only
}

// insert_many/remove_many: one lock + one WAL append per batch, with
// create/remove semantics decided per entry — including duplicates
// inside one batch.
TEST_F(DbTest, BatchedInsertRemoveSemantics) {
  std::vector<std::pair<std::string, std::string>> entries = {
      {"/b/1", "v1"}, {"/b/2", "v2"}, {"/b/1", "dup"}, {"/b/3", "v3"}};
  std::vector<Errc> out;
  ASSERT_TRUE(db_->insert_many(entries, &out).is_ok());
  ASSERT_EQ(out.size(), 4u);
  EXPECT_EQ(out[0], Errc::ok);
  EXPECT_EQ(out[1], Errc::ok);
  EXPECT_EQ(out[2], Errc::exists);  // duplicate within the same batch
  EXPECT_EQ(out[3], Errc::ok);
  EXPECT_EQ(*db_->get("/b/1"), "v1");

  std::vector<std::string> old_values;
  ASSERT_TRUE(db_->remove_many({"/b/1", "/missing", "/b/1", "/b/3"}, &out,
                               &old_values)
                  .is_ok());
  ASSERT_EQ(out.size(), 4u);
  EXPECT_EQ(out[0], Errc::ok);
  EXPECT_EQ(out[1], Errc::not_found);
  EXPECT_EQ(out[2], Errc::not_found);  // removed earlier in this batch
  EXPECT_EQ(out[3], Errc::ok);
  EXPECT_EQ(old_values[0], "v1");
  EXPECT_TRUE(old_values[1].empty());
  EXPECT_EQ(db_->get("/b/1").code(), Errc::not_found);
  EXPECT_EQ(*db_->get("/b/2"), "v2");
}

// ---------- bounded merge chains ----------

// Where a key's chain sits when it is read: the active memtable, a
// sealed (immutable) memtable, or an L0 table.
enum class Placement { memtable, immutable, sst };

const char* placement_name(Placement p) {
  switch (p) {
    case Placement::memtable: return "memtable";
    case Placement::immutable: return "immutable";
    case Placement::sst: return "sst";
  }
  return "?";
}

class MergeChainTest : public DbTest,
                       public ::testing::WithParamInterface<Placement> {
 protected:
  /// Inline mode and a memtable large enough that nothing switches
  /// until place() says so.
  static Options roomy(std::shared_ptr<const MergeOperator> op) {
    Options o = default_options();
    o.memtable_budget = 64 * 1024 * 1024;
    o.merge_operator = std::move(op);
    return o;
  }

  void place() {
    switch (GetParam()) {
      case Placement::memtable:
        break;
      case Placement::immutable:
        ASSERT_TRUE(db_->seal_memtable().is_ok());
        ASSERT_EQ(db_->stats().immutable_memtables, 1u);
        break;
      case Placement::sst:
        ASSERT_TRUE(db_->flush().is_ok());
        ASSERT_EQ(db_->stats().memtable_bytes, 0u);
        ASSERT_EQ(db_->stats().immutable_memtables, 0u);
        break;
    }
  }

  std::uint64_t folded() { return db_->stats().merge_operands_folded; }
};

INSTANTIATE_TEST_SUITE_P(
    Placements, MergeChainTest,
    ::testing::Values(Placement::memtable, Placement::immutable,
                      Placement::sst),
    [](const ::testing::TestParamInfo<Placement>& p) {
      return placement_name(p.param);
    });

// Every K-th merge folds the K - 1 operands stacked on the base, so
// after N merges a read folds exactly N mod K of them, wherever the
// chain sits. Without the bound it would fold all N.
TEST_P(MergeChainTest, ReadFoldsAtMostKMinusOneOperands) {
  open_db(roomy(std::make_shared<U64MaxMergeOperator>()));
  constexpr std::uint64_t kMerges = 4096 + kMaxSuccessiveMerges - 1;
  constexpr std::uint64_t K = kMaxSuccessiveMerges;
  ASSERT_TRUE(db_->put("/hot", U64MaxMergeOperator::encode(0)).is_ok());
  for (std::uint64_t i = 1; i <= kMerges; ++i) {
    ASSERT_TRUE(
        db_->merge("/hot", U64MaxMergeOperator::encode(i)).is_ok());
  }
  EXPECT_EQ(folded(), kMerges / K * K);  // the merges' own folds
  place();

  const std::uint64_t before = folded();
  auto v = db_->get("/hot");
  ASSERT_TRUE(v.is_ok());
  EXPECT_EQ(U64MaxMergeOperator::decode(*v), kMerges);
  EXPECT_EQ(folded() - before, kMerges % K);
  EXPECT_LE(folded() - before, K - 1);

  // A scan entry folds the same chain.
  const std::uint64_t before_scan = folded();
  ASSERT_TRUE(db_->scan_prefix("/hot", [](auto, auto) { return true; })
                  .is_ok());
  EXPECT_EQ(folded() - before_scan, kMerges % K);
}

// A conditional merge over a tombstone is refused wherever the
// tombstone sits, and writes nothing.
TEST_P(MergeChainTest, ConditionalMergeOverTombstoneIsNotFound) {
  ASSERT_TRUE(db_->put("/gone", "base").is_ok());
  ASSERT_TRUE(db_->merge("/gone", "a").is_ok());
  ASSERT_TRUE(db_->erase("/gone").is_ok());
  place();
  const DbStats before = db_->stats();
  EXPECT_EQ(db_->merge_existing("/gone", "late").code(), Errc::not_found);
  EXPECT_EQ(db_->merge_existing("/never", "late").code(), Errc::not_found);
  const DbStats after = db_->stats();
  EXPECT_EQ(after.wal_appends, before.wal_appends);
  EXPECT_EQ(after.merges, before.merges);
  EXPECT_EQ(db_->get("/gone").code(), Errc::not_found);
  EXPECT_EQ(db_->get("/never").code(), Errc::not_found);
  // The path is absent for create, too.
  EXPECT_TRUE(db_->insert("/gone", "new").is_ok());
  EXPECT_EQ(*db_->get("/gone"), "new");
}

// The single-key remove returns the fold of the base and the operands
// pending on it, read by the same locked lookup that deletes the key.
TEST_P(MergeChainTest, RemoveReturnsFoldedOldValue) {
  ASSERT_TRUE(db_->put("/r", "base").is_ok());
  ASSERT_TRUE(db_->merge_existing("/r", "a").is_ok());
  ASSERT_TRUE(db_->merge_existing("/r", "b").is_ok());
  place();
  const std::uint64_t before = folded();
  auto old = db_->remove_existing("/r");
  ASSERT_TRUE(old.is_ok());
  EXPECT_EQ(*old, "base,a,b");
  EXPECT_EQ(folded() - before, 2u);
  EXPECT_EQ(db_->get("/r").code(), Errc::not_found);
  EXPECT_EQ(db_->remove_existing("/r").code(), Errc::not_found);
}

// The predicate sees the current value (operands folded) and its
// refusal is returned with nothing written.
TEST_F(DbTest, MergeExistingPredicateSeesFoldedValue) {
  ASSERT_TRUE(db_->put("/p", "base").is_ok());
  ASSERT_TRUE(db_->merge("/p", "a").is_ok());
  std::string seen;
  auto accept = [&](std::string_view v) {
    seen = std::string(v);
    return Status::ok();
  };
  ASSERT_TRUE(db_->merge_existing("/p", "b", accept).is_ok());
  EXPECT_EQ(seen, "base,a");
  EXPECT_EQ(*db_->get("/p"), "base,a,b");
  const auto appends = db_->stats().wal_appends;
  EXPECT_EQ(db_->merge_existing("/p", "c",
                                [](std::string_view) -> Status {
                                  return Errc::is_directory;
                                })
                .code(),
            Errc::is_directory);
  EXPECT_EQ(db_->stats().wal_appends, appends);
  EXPECT_EQ(*db_->get("/p"), "base,a,b");
}

// Never fold across a tombstone: a plain merge chain above one keeps
// its operands (unbounded) and reads exactly as before the bound, with
// the tombstone in the memtable or in a table.
TEST_F(DbTest, ChainAboveTombstoneStaysOperands) {
  for (const bool flushed : {false, true}) {
    const std::string key = flushed ? "/t/sst" : "/t/mem";
    ASSERT_TRUE(db_->put(key, "base").is_ok());
    ASSERT_TRUE(db_->erase(key).is_ok());
    if (flushed) {
      ASSERT_TRUE(db_->flush().is_ok());
    }
    std::string want;
    constexpr int kOps = 3 * static_cast<int>(kMaxSuccessiveMerges);
    for (int i = 0; i < kOps; ++i) {
      const std::string op = "m" + std::to_string(i);
      ASSERT_TRUE(db_->merge(key, op).is_ok());
      want += (i ? "," : "") + op;
    }
    const std::uint64_t before = db_->stats().merge_operands_folded;
    EXPECT_EQ(*db_->get(key), want) << key;
    EXPECT_EQ(db_->stats().merge_operands_folded - before,
              static_cast<std::uint64_t>(kOps))
        << key;
    // Still absent for the conditional writes, as before.
    EXPECT_EQ(db_->merge_existing(key, "x").code(), Errc::not_found) << key;
  }
}

// A snapshot taken before a fold still reads the pre-fold entries.
TEST_F(DbTest, SnapshotBeforeFoldReadsPreFoldValue) {
  ASSERT_TRUE(db_->put("/s", "b").is_ok());
  std::string want = "b";
  for (std::size_t i = 1; i < kMaxSuccessiveMerges; ++i) {
    const std::string op = "o" + std::to_string(i);
    ASSERT_TRUE(db_->merge("/s", op).is_ok());
    want += "," + op;
  }
  auto snap = db_->snapshot();
  ASSERT_TRUE(db_->merge("/s", "fold").is_ok());  // the K-th: folds
  ASSERT_TRUE(db_->merge("/s", "after").is_ok());

  ReadOptions at_snap;
  at_snap.snapshot_seq = snap->sequence();
  std::uint64_t before = db_->stats().merge_operands_folded;
  EXPECT_EQ(*db_->get("/s", at_snap), want);
  EXPECT_EQ(db_->stats().merge_operands_folded - before,
            kMaxSuccessiveMerges - 1);
  before = db_->stats().merge_operands_folded;
  EXPECT_EQ(*db_->get("/s"), want + ",fold,after");
  EXPECT_EQ(db_->stats().merge_operands_folded - before, 1u);
}

// The fold is an ordinary put in the WAL: one record per merge, and a
// reopen that replays the WAL reads the same value.
TEST_F(DbTest, FoldedChainSurvivesWalReplay) {
  ASSERT_TRUE(db_->put("/w", "b").is_ok());
  constexpr int kOps = 2 * static_cast<int>(kMaxSuccessiveMerges) + 3;
  for (int i = 0; i < kOps; ++i) {
    ASSERT_TRUE(db_->merge_existing("/w", std::to_string(i)).is_ok());
  }
  const std::string want = *db_->get("/w");
  // Copy the live directory: the WAL is flushed to the OS per append,
  // so the copy is what a crash at this point leaves behind.
  const auto crashed = dir_ / "crashed";
  std::filesystem::copy(dir_ / "db", crashed,
                        std::filesystem::copy_options::recursive);
  auto reopened = DB::open(crashed, default_options());
  ASSERT_TRUE(reopened.is_ok()) << reopened.status().to_string();
  EXPECT_EQ((*reopened)->stats().wal_recovered_records,
            static_cast<std::uint64_t>(kOps) + 1);
  EXPECT_EQ(*(*reopened)->get("/w"), want);
  EXPECT_EQ(*(*reopened)->get("/w"), *db_->get("/w"));
}

}  // namespace
}  // namespace gekko::kv

// LSM structural invariants, checked through the DB's public state
// after realistic write/flush/compact histories:
//  - L1+ files are disjoint in user-key ranges and sorted,
//  - level sizes respect the shape thresholds after compact_all,
//  - obsolete SST/WAL files are actually deleted from disk,
//  - MANIFEST reflects exactly the live files (crash-consistent view).
#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <set>

#include "common/rng.h"
#include "kv/db.h"
#include "kv/merge.h"

namespace gekko::kv {
namespace {

class LsmInvariantTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("gekko_lsm_" + std::to_string(::getpid()));
    std::filesystem::remove_all(dir_);
    Options o;
    o.memtable_budget = 8 * 1024;
    o.l0_compaction_trigger = 3;
    o.l1_max_bytes = 32 * 1024;
    o.target_sst_size = 16 * 1024;
    o.background_compaction = false;
    o.merge_operator = std::make_shared<AppendMergeOperator>();
    opts_ = o;
    auto db = DB::open(dir_ / "db", o);
    ASSERT_TRUE(db.is_ok());
    db_ = std::move(*db);
  }
  void TearDown() override {
    db_.reset();
    std::filesystem::remove_all(dir_);
  }

  /// Count on-disk .sst files.
  std::size_t sst_files_on_disk() {
    std::size_t n = 0;
    for (const auto& e :
         std::filesystem::directory_iterator(dir_ / "db")) {
      if (e.path().extension() == ".sst") ++n;
    }
    return n;
  }
  std::size_t wal_files_on_disk() {
    std::size_t n = 0;
    for (const auto& e :
         std::filesystem::directory_iterator(dir_ / "db")) {
      const std::string name = e.path().filename();
      if (name.starts_with("wal-")) ++n;
    }
    return n;
  }

  std::filesystem::path dir_;
  Options opts_;
  std::unique_ptr<DB> db_;
};

TEST_F(LsmInvariantTest, LevelFileCountsMatchDisk) {
  Xoshiro256 rng(17);
  for (int i = 0; i < 6000; ++i) {
    ASSERT_TRUE(db_->put("/k/" + std::to_string(rng.below(800)),
                         std::string(48, 'x'))
                    .is_ok());
  }
  ASSERT_TRUE(db_->flush().is_ok());
  const auto stats = db_->stats();
  std::size_t live = 0;
  for (int l = 0; l < kNumLevels; ++l) live += stats.level_files[l];
  // Every live file exists; every on-disk SST is live (GC complete).
  EXPECT_EQ(sst_files_on_disk(), live);
}

TEST_F(LsmInvariantTest, CompactAllDrainsUpperLevels) {
  for (int i = 0; i < 4000; ++i) {
    ASSERT_TRUE(
        db_->put("/c/" + std::to_string(i), std::string(40, 'y')).is_ok());
  }
  ASSERT_TRUE(db_->compact_all().is_ok());
  const auto stats = db_->stats();
  EXPECT_EQ(stats.level_files[0], 0u);  // L0 fully pushed down
  // All data still readable.
  for (int i : {0, 1234, 3999}) {
    EXPECT_TRUE(db_->get("/c/" + std::to_string(i)).is_ok()) << i;
  }
}

TEST_F(LsmInvariantTest, ExactlyOneActiveWal) {
  for (int i = 0; i < 3000; ++i) {
    ASSERT_TRUE(
        db_->put("/w/" + std::to_string(i), std::string(64, 'z')).is_ok());
  }
  // Multiple memtable switches happened; all flushed WALs must be gone.
  ASSERT_TRUE(db_->flush().is_ok());
  EXPECT_EQ(wal_files_on_disk(), 1u);
}

TEST_F(LsmInvariantTest, ScanIsSortedAndDuplicateFreeAfterChurn) {
  Xoshiro256 rng(23);
  std::set<std::string> live_keys;
  for (int round = 0; round < 5; ++round) {
    for (int i = 0; i < 800; ++i) {
      const std::string key = "/s/" + std::to_string(rng.below(500));
      if (rng.below(4) == 0) {
        ASSERT_TRUE(db_->erase(key).is_ok());
        live_keys.erase(key);
      } else {
        ASSERT_TRUE(db_->put(key, "r" + std::to_string(round)).is_ok());
        live_keys.insert(key);
      }
    }
    ASSERT_TRUE(db_->compact_all().is_ok());
  }
  std::vector<std::string> scanned;
  ASSERT_TRUE(db_->scan_prefix("/s/", [&](auto k, auto) {
                  scanned.emplace_back(k);
                  return true;
                })
                  .is_ok());
  // Sorted, no duplicates, exactly the live set.
  ASSERT_EQ(scanned.size(), live_keys.size());
  EXPECT_TRUE(std::is_sorted(scanned.begin(), scanned.end()));
  EXPECT_TRUE(std::adjacent_find(scanned.begin(), scanned.end()) ==
              scanned.end());
  EXPECT_TRUE(std::equal(scanned.begin(), scanned.end(),
                         live_keys.begin()));
}

TEST_F(LsmInvariantTest, MergeOperandsSurviveDeepCompaction) {
  // Merge chains must fold identically whether they live in the
  // memtable, L0, or deep levels after several compactions.
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(db_->put("/m/" + std::to_string(i), "base").is_ok());
  }
  for (int round = 0; round < 4; ++round) {
    for (int i = 0; i < 50; ++i) {
      ASSERT_TRUE(db_->merge("/m/" + std::to_string(i),
                             "op" + std::to_string(round))
                      .is_ok());
    }
    // Interleave filler to force flushes between merge generations.
    for (int f = 0; f < 500; ++f) {
      ASSERT_TRUE(db_->put("/fill/" + std::to_string(round * 1000 + f),
                           std::string(64, 'f'))
                      .is_ok());
    }
    ASSERT_TRUE(db_->compact_all().is_ok());
  }
  for (int i = 0; i < 50; ++i) {
    auto v = db_->get("/m/" + std::to_string(i));
    ASSERT_TRUE(v.is_ok()) << i;
    EXPECT_EQ(*v, "base,op0,op1,op2,op3") << i;
  }
}

TEST_F(LsmInvariantTest, MergeChainsStayBoundedThroughFlushAndCompaction) {
  // However a key's merges interleave with memtable switches, flushes,
  // compactions and reopens, a read folds at most K - 1 operands and
  // the value is the full fold.
  Xoshiro256 rng(41);
  std::map<std::string, std::string> model;
  for (int i = 0; i < 40; ++i) {
    const std::string key = "/b/" + std::to_string(i);
    ASSERT_TRUE(db_->insert(key, "base").is_ok());
    model[key] = "base";
  }
  for (int round = 0; round < 6; ++round) {
    for (int i = 0; i < 1200; ++i) {
      const std::string key = "/b/" + std::to_string(rng.below(40));
      const std::string op = std::to_string(round) + "." + std::to_string(i);
      ASSERT_TRUE(db_->merge_existing(key, op).is_ok());
      model[key] += "," + op;
    }
    if (round % 2 == 1) {
      ASSERT_TRUE(db_->compact_all().is_ok());
    }
    if (round == 3) {
      db_.reset();
      auto db = DB::open(dir_ / "db", opts_);
      ASSERT_TRUE(db.is_ok());
      db_ = std::move(*db);
    }
    for (const auto& [key, want] : model) {
      const std::uint64_t before = db_->stats().merge_operands_folded;
      auto got = db_->get(key);
      ASSERT_TRUE(got.is_ok()) << key;
      EXPECT_EQ(*got, want) << "round " << round << " " << key;
      EXPECT_LE(db_->stats().merge_operands_folded - before,
                kMaxSuccessiveMerges - 1)
          << "round " << round << " " << key;
    }
  }
  EXPECT_GT(db_->stats().flushes, 0u);
}

TEST_F(LsmInvariantTest, ReopenAfterEveryCompactionState) {
  // Close/reopen at several points in the compaction lifecycle; the
  // MANIFEST must always describe a complete, readable database.
  Xoshiro256 rng(31);
  std::map<std::string, std::string> model;
  for (int phase = 0; phase < 4; ++phase) {
    for (int i = 0; i < 700; ++i) {
      const std::string key = "/r/" + std::to_string(rng.below(300));
      const std::string value = "p" + std::to_string(phase);
      ASSERT_TRUE(db_->put(key, value).is_ok());
      model[key] = value;
    }
    if (phase == 1) ASSERT_TRUE(db_->flush().is_ok());
    if (phase == 2) ASSERT_TRUE(db_->compact_all().is_ok());

    db_.reset();
    auto db = DB::open(dir_ / "db", opts_);
    ASSERT_TRUE(db.is_ok()) << "phase " << phase;
    db_ = std::move(*db);

    for (const auto& [k, v] : model) {
      auto got = db_->get(k);
      ASSERT_TRUE(got.is_ok()) << "phase " << phase << " " << k;
      ASSERT_EQ(*got, v) << "phase " << phase << " " << k;
    }
  }
}

}  // namespace
}  // namespace gekko::kv

// relaxed-ok: approximate_bytes is a monotone size estimate used for
// flush heuristics; writers publish entries via the skiplist, not this
// counter.
// Memtable: skiplist of internal keys with visibility-aware point reads.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "kv/internal_key.h"
#include "kv/skiplist.h"

namespace gekko::kv {

/// Outcome of a point lookup in one LSM component.
enum class LookupState {
  not_present,  // keep searching older components
  found,        // value is final
  deleted,      // tombstone: stop searching, key absent
};

struct LookupResult {
  LookupState state = LookupState::not_present;
  std::string value;  // valid when state == found
  /// Merge operands collected newest-first while descending components.
  /// Lookup continues past merges until a base value/deletion/bottom.
  std::vector<std::string> pending_merges;
};

class MemTable {
 public:
  MemTable() = default;

  /// Insert one op. Called with the DB write mutex held.
  void add(SequenceNumber seq, ValueType type, std::string_view user_key,
           std::string_view value) {
    list_.insert(make_internal_key(user_key, seq, type), value);
    approx_bytes_.fetch_add(user_key.size() + value.size() + 16,
                            std::memory_order_relaxed);
    if (chains_.empty()) return;
    const auto it = chains_.find(user_key);
    if (it == chains_.end()) return;
    switch (type) {
      case ValueType::value:
        it->second = {0, LookupState::found};
        break;
      case ValueType::deletion:
        it->second = {0, LookupState::deleted};
        break;
      case ValueType::merge:
        ++it->second.operands;
        break;
    }
  }

  /// Point lookup visible at `snapshot_seq`. Appends any merge operands
  /// (newest first) to `result.pending_merges` and sets state if a base
  /// value or tombstone is found.
  void get(std::string_view user_key, SequenceNumber snapshot_seq,
           LookupResult* result) const {
    SkipList::Iterator it(&list_);
    it.seek(make_lookup_key(user_key, snapshot_seq));
    while (it.valid()) {
      const std::string_view ikey = it.key();
      if (extract_user_key(ikey) != user_key) break;
      const std::uint64_t trailer = extract_trailer(ikey);
      if (trailer_sequence(trailer) > snapshot_seq) {
        it.next();  // newer than our snapshot; skip
        continue;
      }
      switch (trailer_type(trailer)) {
        case ValueType::value:
          result->state = LookupState::found;
          result->value = it.value();
          return;
        case ValueType::deletion:
          result->state = LookupState::deleted;
          return;
        case ValueType::merge:
          result->pending_merges.emplace_back(it.value());
          it.next();
          continue;
      }
    }
    // state stays not_present; merges (if any) continue in older parts.
  }

  /// The top of one key's newest chain: how many merge operands are
  /// stacked and what lies under them — found (a value), deleted (a
  /// tombstone) or not_present (nothing here, or not walked that far).
  struct ChainTop {
    std::size_t operands = 0;
    LookupState base = LookupState::not_present;
  };
  /// `user_key`'s chain top. The first call for a key walks at most
  /// max_operands + 1 entries without copying them (stopping after
  /// max_operands operands); add() keeps the answer current from then
  /// on, so later calls read one cached entry instead of re-walking
  /// nodes that other writers' cores just wrote. The cache holds one
  /// small entry per merged key and dies with the memtable. Called with
  /// the DB write mutex held.
  [[nodiscard]] ChainTop chain_top(std::string_view user_key,
                                   std::size_t max_operands) {
    auto it = chains_.find(user_key);
    if (it == chains_.end()) {
      it = chains_.emplace(std::string(user_key),
                           walk_chain_(user_key, max_operands))
               .first;
    }
    return it->second;
  }

  [[nodiscard]] std::size_t approximate_bytes() const noexcept {
    return approx_bytes_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t entry_count() const noexcept {
    return list_.size();
  }
  [[nodiscard]] bool empty() const noexcept { return list_.size() == 0; }

  [[nodiscard]] SkipList::Iterator iterator() const {
    return SkipList::Iterator(&list_);
  }

 private:
  struct KeyHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view k) const noexcept {
      return std::hash<std::string_view>{}(k);
    }
  };

  [[nodiscard]] ChainTop walk_chain_(std::string_view user_key,
                                     std::size_t max_operands) const {
    ChainTop top;
    SkipList::Iterator it(&list_);
    it.seek(make_lookup_key(user_key, kMaxSequence));
    for (; it.valid() && top.operands < max_operands; it.next()) {
      const std::string_view ikey = it.key();
      if (extract_user_key(ikey) != user_key) break;
      switch (trailer_type(extract_trailer(ikey))) {
        case ValueType::value:
          top.base = LookupState::found;
          return top;
        case ValueType::deletion:
          top.base = LookupState::deleted;
          return top;
        case ValueType::merge:
          ++top.operands;
          break;
      }
    }
    return top;
  }

  SkipList list_;
  std::atomic<std::size_t> approx_bytes_{0};
  /// chain_top() answers for the keys merged into this memtable; written
  /// only under the DB write mutex (add / chain_top), never by readers.
  std::unordered_map<std::string, ChainTop, KeyHash, std::equal_to<>>
      chains_;
};

}  // namespace gekko::kv

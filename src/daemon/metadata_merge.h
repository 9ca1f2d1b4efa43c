// Merge operator folding size updates into packed Metadata records.
//
// GekkoFS stores one Metadata record per path in RocksDB and updates
// file sizes with a merge operand instead of read-modify-write, so
// concurrent writers to one file never serialize on a get+put cycle
// (the contention the paper measures on shared files, §IV.B). The
// operands are applied only to live paths (kv::DB::merge_existing), and
// every kv::kMaxSuccessiveMerges-th one folds its key's chain into a
// plain value under the kv write lock the merge already holds, so a
// stat applies at most K - 1 operands however many writes came before.
//
// Operand format: [op u8][size u64][mtime i64]
//   op 0: size = max(size, operand.size)        (write at offset)
//   op 1: size = operand.size                   (truncate)
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/codec.h"
#include "kv/options.h"
#include "proto/metadata.h"

namespace gekko::daemon {

enum class SizeOp : std::uint8_t { grow_to = 0, set_to = 1 };

inline std::string encode_size_operand(SizeOp op, std::uint64_t size,
                                       std::int64_t mtime_ns) {
  std::vector<std::uint8_t> buf;
  gekko::Encoder enc(&buf);
  enc.u8(static_cast<std::uint8_t>(op));
  enc.u64(size);
  enc.i64(mtime_ns);
  return std::string(buf.begin(), buf.end());
}

class MetadataMergeOperator final : public kv::MergeOperator {
 public:
  [[nodiscard]] std::string_view name() const override {
    return "gekkofs_metadata";
  }

  [[nodiscard]] std::string merge(std::string_view /*key*/,
                                  const std::string* existing,
                                  std::string_view operand) const override {
    proto::Metadata md = base_of(existing);
    if (!apply(operand, &md)) return existing ? *existing : md.encode();
    return md.encode();
  }

  /// Decodes the record once and encodes it once, however many operands
  /// the chain holds (a malformed operand is skipped, as merge() skips
  /// it).
  [[nodiscard]] std::string full_merge(
      std::string_view /*key*/, const std::string* existing,
      std::span<const std::string> operands) const override {
    proto::Metadata md = base_of(existing);
    for (auto it = operands.rbegin(); it != operands.rend(); ++it) {
      apply(*it, &md);
    }
    return md.encode();
  }

 private:
  /// A corrupt base degrades to a default record rather than erroring:
  /// merge operators cannot fail mid-compaction.
  static proto::Metadata base_of(const std::string* existing) {
    if (existing != nullptr) {
      if (auto decoded = proto::Metadata::decode(*existing)) return *decoded;
    }
    return proto::Metadata{};
  }

  /// Apply one operand; false (md untouched) if it does not decode.
  static bool apply(std::string_view operand, proto::Metadata* md) {
    gekko::Decoder dec(operand);
    auto op = dec.u8();
    auto size = dec.u64();
    auto mtime = dec.i64();
    if (!op || !size || !mtime) return false;
    switch (static_cast<SizeOp>(*op)) {
      case SizeOp::grow_to:
        if (*size > md->size) md->size = *size;
        break;
      case SizeOp::set_to:
        md->size = *size;
        break;
    }
    if (*mtime > md->mtime_ns) md->mtime_ns = *mtime;
    return true;
  }
};

}  // namespace gekko::daemon

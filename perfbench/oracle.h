// Seed-derived inputs and the correctness checks the benchmark applies
// outside its timed intervals.
//
// Every payload byte comes from one pool of seeded random bytes that is
// filled before any timing starts. A transfer's expected content is a
// window into that pool chosen by (file, transfer index), so the timed
// loops hand out views instead of generating data, and the checker
// compares a read against the same view afterwards.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "common/hash.h"
#include "common/rng.h"

namespace perfbench {

class PayloadPool {
 public:
  PayloadPool(std::uint64_t seed, std::size_t bytes) : bytes_(bytes) {
    gekko::Xoshiro256 rng(gekko::mix64(seed ^ 0x7061796c6f6164ULL));
    for (std::size_t i = 0; i < bytes_.size(); i += 8) {
      const std::uint64_t v = rng();
      std::memcpy(bytes_.data() + i, &v,
                  std::min<std::size_t>(8, bytes_.size() - i));
    }
  }

  /// Expected content of transfer `index` of file `file`: `len` bytes at
  /// a 64-byte-aligned pool offset picked by hashing (file, index), so
  /// neighbouring transfers carry different bytes and a misplaced read
  /// does not compare equal.
  [[nodiscard]] std::span<const std::uint8_t> window(std::uint64_t file,
                                                     std::uint64_t index,
                                                     std::size_t len) const {
    const std::size_t starts = (bytes_.size() - len) / 64 + 1;
    const std::uint64_t h =
        gekko::mix64(gekko::mix64(file + 0x9e3779b97f4a7c15ULL) ^ index);
    return {bytes_.data() + (h % starts) * 64, len};
  }

 private:
  std::vector<std::uint8_t> bytes_;
};

/// True iff `got` equals `want` byte for byte.
inline bool same_bytes(std::span<const std::uint8_t> got,
                       std::span<const std::uint8_t> want) {
  return got.size() == want.size() &&
         std::memcmp(got.data(), want.data(), got.size()) == 0;
}

/// True iff the listed names are exactly the expected ones (any order).
inline bool same_names(std::vector<std::string> got,
                       std::vector<std::string> want) {
  std::sort(got.begin(), got.end());
  std::sort(want.begin(), want.end());
  return got == want;
}

}  // namespace perfbench
